package mpi

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi/tcpconn"
)

// tcpNode is one rank's data path: a loopback listener accepting framed
// streams from peers, one dialed stream per peer this rank sends to, a
// control connection to the coordinator, and the heartbeat machinery that
// keeps both honest. All wire state is per-epoch: an epoch bump (respawn
// or recovery round) closes every stream and restarts sequences, and the
// incarnation stamp on every frame lets a respawned rank's traffic be told
// apart from its dead predecessor's.

// Fixed binary header of tfData/tfPData/tfPPart payloads, little-endian.
// After the header come elems float64 payload words (Float64bits) and
// nflips injected byte-flips (u32 offset, u8 mask, 3 pad). wireSeq is
// stamped at encode time under the stream lock.
const tcpHdrLen = 80

type tcpHdr struct {
	src, dst, tag, slot            int
	epoch, inc, wireSeq, fseq, cyc uint64
	offE, partLo, partHi, nparts   int
	elems, nflips                  int
}

// appendDataFrame appends the encoding of one data frame to dst.
func appendDataFrame(dst []byte, h *tcpHdr, data []float64, flips []fault.ByteFlip) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(h.src))
	dst = le.AppendUint32(dst, uint32(h.dst))
	dst = le.AppendUint32(dst, uint32(h.tag))
	dst = le.AppendUint32(dst, uint32(h.slot))
	dst = le.AppendUint64(dst, h.epoch)
	dst = le.AppendUint64(dst, h.inc)
	dst = le.AppendUint64(dst, h.wireSeq)
	dst = le.AppendUint64(dst, h.fseq)
	dst = le.AppendUint64(dst, h.cyc)
	dst = le.AppendUint32(dst, uint32(h.offE))
	dst = le.AppendUint32(dst, uint32(h.partLo))
	dst = le.AppendUint32(dst, uint32(h.partHi))
	dst = le.AppendUint32(dst, uint32(h.nparts))
	dst = le.AppendUint32(dst, uint32(len(data)))
	dst = le.AppendUint32(dst, uint32(len(flips)))
	for _, v := range data {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	for _, fl := range flips {
		dst = le.AppendUint32(dst, uint32(fl.Off))
		dst = append(dst, fl.Mask, 0, 0, 0)
	}
	return dst
}

// decodeDataFrame decodes b into h, appending the payload words to
// data[:0]: a reader that passes the previous frame's slice back decodes
// without allocating. Flips, present only under fault injection, are
// freshly allocated.
func decodeDataFrame(b []byte, h *tcpHdr, data []float64) ([]float64, []fault.ByteFlip, error) {
	if len(b) < tcpHdrLen {
		return data, nil, fmt.Errorf("tcp: short data frame (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	*h = tcpHdr{
		src: int(int32(le.Uint32(b[0:]))), dst: int(int32(le.Uint32(b[4:]))),
		tag: int(int32(le.Uint32(b[8:]))), slot: int(int32(le.Uint32(b[12:]))),
		epoch: le.Uint64(b[16:]), inc: le.Uint64(b[24:]),
		wireSeq: le.Uint64(b[32:]), fseq: le.Uint64(b[40:]), cyc: le.Uint64(b[48:]),
		offE: int(int32(le.Uint32(b[56:]))), partLo: int(int32(le.Uint32(b[60:]))),
		partHi: int(int32(le.Uint32(b[64:]))), nparts: int(int32(le.Uint32(b[68:]))),
		elems: int(le.Uint32(b[72:])), nflips: int(le.Uint32(b[76:])),
	}
	want := tcpHdrLen + 8*h.elems + 8*h.nflips
	if len(b) != want {
		return data, nil, fmt.Errorf("tcp: data frame length %d, header claims %d", len(b), want)
	}
	off := tcpHdrLen
	data = data[:0]
	for i := 0; i < h.elems; i++ {
		data = append(data, math.Float64frombits(le.Uint64(b[off:])))
		off += 8
	}
	var flips []fault.ByteFlip
	if h.nflips > 0 {
		flips = make([]fault.ByteFlip, h.nflips)
		for i := range flips {
			flips[i] = fault.ByteFlip{Off: int(le.Uint32(b[off:])), Mask: b[off+4]}
			off += 8
		}
	}
	return data, flips, nil
}

// tcpOut is the dialed stream to one peer. seq counts every data frame
// handed to the stream (dropped-by-injection ones included, which is what
// makes injected drops detectable as sequence gaps on the far side).
// payload and frame are the encode buffers of the frame being written,
// reused so a steady stream of frames costs no allocation.
type tcpOut struct {
	mu            sync.Mutex
	conn          net.Conn
	seq           uint64
	everConnected bool
	payload       []byte
	frame         []byte
}

// tcpAccepted is one accepted peer stream, monitored for heartbeat
// liveness: lastRecv is bumped by every frame, and the heartbeater
// compares its age against the miss/dead thresholds.
type tcpAccepted struct {
	conn     net.Conn
	src      int
	lastRecv atomic.Int64 // UnixNano of the last frame
	missAt   atomic.Int64 // UnixNano of the last recorded miss (rate limit)
}

// tcpMsg is an arrived one-shot message awaiting a matching receive.
type tcpMsg struct {
	src, tag int
	data     []float64
	flips    []fault.ByteFlip
	fseq     uint64
}

// tcpRecv is a posted one-shot receive; it is its own reqOp.
type tcpRecv struct {
	n          *tcpNode
	c          *Comm
	src, tag   int
	buf        []float64
	post       time.Time
	done       chan struct{}
	nDelivered int
	corrupted  *CorruptionError
	overflow   string
}

type persKey struct {
	src, dst, tag, slot int
}

type slotKey struct {
	psend         bool
	src, dst, tag int
}

type collWKey struct {
	coll int
	gen  uint64
}

type tcpNode struct {
	t    *tcpTransport
	w    *World
	rank int
	inc  uint64
	ln   net.Listener
	ctl  *ctlConn
	dial tcpconn.DialPolicy

	epoch          atomic.Uint64
	restore        atomic.Int64
	othersProgress atomic.Int64

	hbInterval, hbMiss, hbDead time.Duration
	writeTimeout, hsTimeout    time.Duration

	closed    chan struct{}
	ctlDown   chan struct{}
	verdictCh chan *ctlMsg
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu          sync.Mutex
	posted      []*tcpRecv
	unmatched   []*tcpMsg
	lastSeq     map[int]uint64 // per-src wire sequence high-water, this epoch
	peerInc     map[int]uint64 // per-src incarnation high-water, survives epochs
	outs        map[int]*tcpOut
	lookups     map[int][]chan string
	collW       map[collWKey]chan *ctlMsg
	collGen     [3]uint64
	collWaiting [3]int
	persSend    map[persKey]*tcpPers
	persRecv    map[persKey]*tcpPers
	slotNext    map[slotKey]int
	early       map[persKey][]*earlyPersFrame
	accepted    map[*tcpAccepted]struct{}
}

// earlyPersFrame is a persistent frame held until it may land: parked in
// the node's early queue until its endpoint registers, or on the endpoint
// until its receive cycle starts.
type earlyPersFrame struct {
	kind  byte
	h     tcpHdr
	data  []float64
	flips []fault.ByteFlip
}

func newTCPNode(t *tcpTransport, rank int) (*tcpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: rank %d listen: %w", rank, err)
	}
	n := &tcpNode{
		t: t, w: t.w, rank: rank, ln: ln,
		dial:         tcpDialPolicyBase,
		hbInterval:   tcpHBInterval,
		hbMiss:       tcpHBMissAfter,
		hbDead:       tcpHBDeadAfter,
		writeTimeout: tcpWriteTimeout,
		hsTimeout:    tcpHandshakeTimeout,
		closed:       make(chan struct{}),
		ctlDown:      make(chan struct{}),
		verdictCh:    make(chan *ctlMsg, 4),
		lastSeq:      map[int]uint64{},
		peerInc:      map[int]uint64{},
		outs:         map[int]*tcpOut{},
		lookups:      map[int][]chan string{},
		collW:        map[collWKey]chan *ctlMsg{},
		persSend:     map[persKey]*tcpPers{},
		persRecv:     map[persKey]*tcpPers{},
		slotNext:     map[slotKey]int{},
		early:        map[persKey][]*earlyPersFrame{},
		accepted:     map[*tcpAccepted]struct{}{},
	}
	n.dial.Seed = int64(rank)*7919 + 1
	conn, err := n.dial.Dial(t.coordAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("tcp: rank %d dial coordinator: %w", rank, err)
	}
	n.ctl = &ctlConn{c: conn}
	if err := n.ctl.send(tfHello, &ctlMsg{Rank: rank, Addr: ln.Addr().String(), WorldID: t.worldID}); err != nil {
		n.ctl.close()
		ln.Close()
		return nil, fmt.Errorf("tcp: rank %d hello: %w", rank, err)
	}
	conn.SetReadDeadline(time.Now().Add(n.hsTimeout))
	kind, payload, err := tcpconn.ReadFrame(conn)
	if err != nil || kind != tfWelcome {
		n.ctl.close()
		ln.Close()
		return nil, fmt.Errorf("tcp: rank %d welcome: kind %d err %v", rank, kind, err)
	}
	var welcome ctlMsg
	if err := json.Unmarshal(payload, &welcome); err != nil {
		n.ctl.close()
		ln.Close()
		return nil, fmt.Errorf("tcp: rank %d welcome: %w", rank, err)
	}
	if welcome.WorldID != t.worldID || welcome.Size != t.w.size {
		n.ctl.close()
		ln.Close()
		return nil, fmt.Errorf("tcp: rank %d joined world %d size %d, want world %d size %d",
			rank, welcome.WorldID, welcome.Size, t.worldID, t.w.size)
	}
	conn.SetReadDeadline(time.Time{})
	n.inc = welcome.Inc
	n.epoch.Store(welcome.Epoch)
	n.restore.Store(int64(welcome.Restore))
	n.wg.Add(3)
	go n.acceptLoop()
	go n.ctlReader()
	go n.heartbeater()
	return n, nil
}

func (n *tcpNode) fl() *flight.Ring {
	// Dynamic: worker attach happens before SetFlight, so the recorder must
	// be fetched per use, never cached. Rank is nil-safe by contract.
	return n.w.flight.Load().Rank(n.rank)
}

func (n *tcpNode) countFrame(kind string) {
	if n.w.reg != nil {
		n.w.reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": kind}).Inc()
	}
}

// ---- accept path ----

func (n *tcpNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		n.wg.Add(1)
		go n.serveAccepted(conn)
	}
}

// serveAccepted runs the JOIN handshake, then pumps frames until the
// stream dies. A dropped stream alone is not a dead peer — the peer may
// redial within its budget — so EOF records a disconnect and nothing more;
// declaring death is the heartbeater's job (silence on a live stream) or
// the supervisor's (a reaped process).
func (n *tcpNode) serveAccepted(conn net.Conn) {
	defer n.wg.Done()
	conn.SetReadDeadline(time.Now().Add(n.hsTimeout))
	kind, payload, err := tcpconn.ReadFrame(conn)
	if err != nil || kind != tfJoin {
		conn.Close()
		return
	}
	var join ctlMsg
	if err := json.Unmarshal(payload, &join); err != nil {
		conn.Close()
		return
	}
	reject := func(msg string) {
		b, _ := json.Marshal(&ctlMsg{Msg: msg})
		tcpconn.WithWriteDeadline(conn, n.writeTimeout, func() error {
			return tcpconn.WriteFrame(conn, tfJoinNo, b)
		})
		conn.Close()
	}
	switch {
	case join.WorldID != n.t.worldID:
		reject(fmt.Sprintf("wrong world %d (want %d)", join.WorldID, n.t.worldID))
		return
	case join.Epoch != n.epoch.Load():
		reject(fmt.Sprintf("stale epoch %d (now %d)", join.Epoch, n.epoch.Load()))
		return
	}
	n.mu.Lock()
	if join.Inc < n.peerInc[join.Rank] {
		n.mu.Unlock()
		reject(fmt.Sprintf("stale incarnation %d of rank %d (now %d)", join.Inc, join.Rank, n.peerInc[join.Rank]))
		return
	}
	n.peerInc[join.Rank] = join.Inc
	a := &tcpAccepted{conn: conn, src: join.Rank}
	a.lastRecv.Store(time.Now().UnixNano())
	n.accepted[a] = struct{}{}
	n.mu.Unlock()
	b, _ := json.Marshal(&ctlMsg{Rank: n.rank})
	if err := tcpconn.WithWriteDeadline(conn, n.writeTimeout, func() error {
		return tcpconn.WriteFrame(conn, tfJoinOK, b)
	}); err != nil {
		n.dropAccepted(a)
		return
	}
	conn.SetReadDeadline(time.Time{})
	n.fl().Record(flight.KindConnect, int32(join.Rank), -1, -1, 0, 0)
	// The frame buffer and the decoded words are reused frame to frame:
	// every delivery copies out of them before the next read.
	fr := tcpconn.FrameReader{R: conn}
	var data []float64
	for {
		kind, payload, err := fr.Next()
		if err != nil {
			n.dropAccepted(a)
			n.fl().Record(flight.KindDisconnect, int32(join.Rank), -1, -1, 0, 0)
			return
		}
		a.lastRecv.Store(time.Now().UnixNano())
		switch kind {
		case tfHBData:
			n.countFrame("hb")
		case tfData, tfPData, tfPPart:
			data = n.handleData(kind, payload, data)
		}
	}
}

func (n *tcpNode) dropAccepted(a *tcpAccepted) {
	a.conn.Close()
	n.mu.Lock()
	delete(n.accepted, a)
	n.mu.Unlock()
}

// handleData runs the epoch/incarnation/sequence gauntlet and dispatches
// a surviving frame. Stale frames (pre-recovery epoch, dead incarnation)
// and duplicates are dropped silently but counted; a sequence gap means a
// frame was lost in flight, which fails loud — the exactly-once story is
// "deliver once or abort", never "maybe".
func (n *tcpNode) handleData(kind byte, payload []byte, scratch []float64) []float64 {
	var h tcpHdr
	data, flips, err := decodeDataFrame(payload, &h, scratch)
	if err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d: %w", n.rank, err))
		return data
	}
	n.mu.Lock()
	if h.epoch != n.epoch.Load() || h.inc < n.peerInc[h.src] {
		n.mu.Unlock()
		n.countFrame("stale-drop")
		return data
	}
	last := n.lastSeq[h.src]
	if h.wireSeq <= last {
		n.mu.Unlock()
		n.countFrame("dup-drop")
		return data
	}
	if h.wireSeq != last+1 {
		n.mu.Unlock()
		n.w.abort(n.rank, fmt.Errorf("tcp: lost %d frame(s) from rank %d on rank %d (wire seq jumped %d -> %d)",
			h.wireSeq-last-1, h.src, n.rank, last, h.wireSeq))
		return data
	}
	n.lastSeq[h.src] = h.wireSeq
	switch kind {
	case tfData:
		n.countFrame("data")
		// A one-shot message may wait unmatched, so it owns its words.
		m := &tcpMsg{src: h.src, tag: h.tag, data: append([]float64(nil), data...), flips: flips, fseq: h.fseq}
		for i, r := range n.posted {
			if matches(r.src, r.tag, m.src, m.tag) {
				n.posted = append(n.posted[:i], n.posted[i+1:]...)
				n.deliverLocked(m, r)
				n.mu.Unlock()
				return data
			}
		}
		n.unmatched = append(n.unmatched, m)
	case tfPData:
		n.countFrame("pdata")
		n.deliverPers(kind, &h, data, flips)
	case tfPPart:
		n.countFrame("ppart")
		n.deliverPers(kind, &h, data, flips)
	}
	n.mu.Unlock()
	return data
}

// deliverLocked copies an arrived message into its matched receive (n.mu
// held). Injected byte flips land after the copy and before the CRC
// check, exactly like the chan backend, so corruption injected by tests
// is caught by the same receive-side CRC. Errors (overflow, corruption)
// are parked on the tcpRecv and raised on the waiting rank's goroutine.
func (n *tcpNode) deliverLocked(m *tcpMsg, r *tcpRecv) {
	nel := len(m.data)
	if nel > len(r.buf) {
		copy(r.buf, m.data[:len(r.buf)])
		r.overflow = fmt.Sprintf("mpi: message overflows receive buffer (src %d tag %d)", m.src, m.tag)
		close(r.done)
		return
	}
	copy(r.buf[:nel], m.data)
	applyFlips(r.buf[:nel], m.flips)
	if n.w.verifyCRC && crcFloats(m.data) != crcFloats(r.buf[:nel]) {
		r.corrupted = &CorruptionError{Src: m.src, Dst: r.c.rank, Tag: m.tag}
	}
	r.nDelivered = nel
	r.c.fl.Deliver(int32(m.src), int32(m.tag), -1, int64(8*nel), m.fseq)
	if r.c.m != nil {
		r.c.m.recvMatchWait.Observe(time.Since(r.post).Seconds())
		r.c.m.recvBytes.Observe(float64(8 * nel))
	}
	close(r.done)
}

// ---- one-shot reqOps ----

// tcpSendOp: sends are eager — the frame is on the wire (or the world is
// aborted) before Isend returns, so Wait on a send completes immediately.
type tcpSendOp struct{}

var tcpSendComplete = &tcpSendOp{}

func (*tcpSendOp) block(r *Request)                               {}
func (*tcpSendOp) blockTimeout(r *Request, d time.Duration) error { return nil }
func (*tcpSendOp) finish(r *Request) int                          { r.comm.world.progressTick(); return 0 }
func (*tcpSendOp) opName(r *Request) string {
	return fmt.Sprintf("wait send dst=%d tag=%d", r.peer, r.tag)
}

func (n *tcpNode) isend(c *Comm, dst, tag int, buf []float64, flips []fault.ByteFlip, seq uint64) *Request {
	h := tcpHdr{src: c.rank, dst: dst, tag: tag, epoch: n.epoch.Load(), inc: n.inc, fseq: seq}
	start := time.Now()
	n.sendData(dst, tfData, &h, buf, flips)
	if c.m != nil {
		c.m.sendSeconds.Observe(time.Since(start).Seconds())
	}
	return &Request{comm: c, op: tcpSendComplete, peer: dst, tag: tag}
}

func (n *tcpNode) irecv(c *Comm, src, tag int, buf []float64) *Request {
	r := &tcpRecv{n: n, c: c, src: src, tag: tag, buf: buf, post: time.Now(), done: make(chan struct{})}
	n.mu.Lock()
	for i, m := range n.unmatched {
		if matches(src, tag, m.src, m.tag) {
			n.unmatched = append(n.unmatched[:i], n.unmatched[i+1:]...)
			n.deliverLocked(m, r)
			n.mu.Unlock()
			return &Request{comm: c, op: r, peer: src, tag: tag}
		}
	}
	n.posted = append(n.posted, r)
	n.mu.Unlock()
	return &Request{comm: c, op: r, peer: src, tag: tag}
}

func (rv *tcpRecv) raiseDelivered() {
	if rv.overflow != "" {
		panic(rv.overflow)
	}
	if rv.corrupted != nil {
		rv.c.world.abort(rv.c.rank, rv.corrupted)
		panic(rv.c.world.Aborted())
	}
}

func (rv *tcpRecv) block(r *Request) {
	select {
	case <-rv.done:
		rv.raiseDelivered()
		return
	default:
	}
	select {
	case <-rv.done:
		rv.raiseDelivered()
	case <-rv.c.world.abortCh:
		panic(rv.c.world.Aborted())
	}
}

func (rv *tcpRecv) blockTimeout(r *Request, d time.Duration) error {
	select {
	case <-rv.done:
		rv.raiseDelivered()
		return nil
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-rv.done:
		rv.raiseDelivered()
		return nil
	case <-rv.c.world.abortCh:
		return rv.c.world.Aborted()
	case <-t.C:
		return &TimeoutError{After: d, Op: rv.opName(r)}
	}
}

func (rv *tcpRecv) finish(r *Request) int {
	rv.c.world.progressTick()
	rv.c.recvMsgs.Add(1)
	rv.c.recvBytes.Add(int64(8 * rv.nDelivered))
	return rv.nDelivered
}

func (rv *tcpRecv) opName(r *Request) string {
	return fmt.Sprintf("wait recv src=%s tag=%s", wildcard(r.peer), wildcard(r.tag))
}

// ---- send path: frames, faults, reconnect ----

func (n *tcpNode) out(dst int) *tcpOut {
	n.mu.Lock()
	o := n.outs[dst]
	if o == nil {
		o = &tcpOut{}
		n.outs[dst] = o
	}
	n.mu.Unlock()
	return o
}

// sendData stamps the next wire sequence into h, encodes the frame into
// the stream's reusable buffers, and writes it, applying any injected
// network faults first. The sequence is bumped even
// for frames the injector drops: the receiver sees the gap and fails
// loud, which is the point of deterministic drop injection. A write that
// still fails after a reconnect attempt means the redial budget is spent:
// the world aborts rather than hangs.
func (n *tcpNode) sendData(dst int, kind byte, h *tcpHdr, data []float64, flips []fault.ByteFlip) {
	o := n.out(dst)
	o.mu.Lock()
	// Unlock by defer: connect (inside writeLocked) panics when the world
	// aborts mid-dial, and a mutex orphaned by that panic would deadlock
	// Close on the unwinding path.
	defer o.mu.Unlock()
	o.seq++
	h.wireSeq = o.seq
	o.payload = appendDataFrame(o.payload[:0], h, data, flips)
	o.frame = tcpconn.AppendFrame(o.frame[:0], kind, o.payload)
	var v fault.NetVerdict
	if f := n.w.fault; f != nil {
		v = f.NetFrame(n.rank, dst)
	}
	if v.Delay > 0 {
		time.Sleep(v.Delay)
	}
	if v.Partition > 0 {
		if o.conn != nil {
			o.conn.Close()
			o.conn = nil
			n.fl().Record(flight.KindDisconnect, int32(dst), -1, -1, 0, 0)
		}
		time.Sleep(v.Partition)
	}
	if v.Drop {
		n.countFrame("net-drop")
		return
	}
	err := n.writeLocked(o, dst)
	if err == nil && v.Dup {
		n.countFrame("net-dup")
		err = n.writeLocked(o, dst)
	}
	if err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: send to rank %d failed (reconnect budget exhausted): %w", dst, err))
		panic(n.w.Aborted())
	}
}

// writeLocked (o.mu held) writes the encoded o.frame, dialing or
// redialing the peer as needed. One reconnect is attempted per write; the
// dial itself carries the backoff budget.
func (n *tcpNode) writeLocked(o *tcpOut, dst int) error {
	if len(o.frame)-tcpconn.HeaderBytes > tcpconn.MaxPayload {
		return fmt.Errorf("tcp: frame payload of %d bytes exceeds the %d-byte cap", len(o.frame)-tcpconn.HeaderBytes, tcpconn.MaxPayload)
	}
	for attempt := 0; ; attempt++ {
		if o.conn == nil {
			if o.everConnected {
				if n.w.reg != nil {
					n.w.reg.Counter(metrics.TransportReconnectsTotal, metrics.Labels{
						"rank": strconv.Itoa(n.rank), "peer": strconv.Itoa(dst),
					}).Inc()
				}
			}
			c, err := n.connect(dst)
			if err != nil {
				return err
			}
			o.conn = c
			o.everConnected = true
			n.fl().Record(flight.KindConnect, int32(dst), -1, -1, 0, 0)
		}
		err := tcpconn.WithWriteDeadline(o.conn, n.writeTimeout, func() error {
			_, err := o.conn.Write(o.frame)
			return err
		})
		if err == nil {
			return nil
		}
		o.conn.Close()
		o.conn = nil
		n.fl().Record(flight.KindDisconnect, int32(dst), -1, -1, 0, 0)
		if attempt >= 1 {
			return err
		}
	}
}

// lookupAddr asks the coordinator where dst listens, blocking until the
// coordinator knows — a respawning peer's address arrives when its new
// process says HELLO. An abort unwinds the wait so survivors never hang
// on a peer that will not return.
func (n *tcpNode) lookupAddr(dst int) string {
	ch := make(chan string, 1)
	n.mu.Lock()
	n.lookups[dst] = append(n.lookups[dst], ch)
	n.mu.Unlock()
	if err := n.ctl.send(tfLookup, &ctlMsg{Rank: n.rank, Peer: dst}); err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d lost control connection: %w", n.rank, err))
		panic(n.w.Aborted())
	}
	select {
	case addr := <-ch:
		return addr
	case <-n.w.abortCh:
		panic(n.w.Aborted())
	case <-n.ctlDown:
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d lost control connection", n.rank))
		panic(n.w.Aborted())
	}
}

// connect dials dst and runs the JOIN handshake. A JoinNo reply (the peer
// is ahead or behind an epoch bump mid-recovery) retries under the same
// backoff schedule as a refused dial; the dial's own attempt budget is
// spent inside DialPolicy.Dial, so a peer that never comes back surfaces
// the budget-exhausted dial error unmodified.
func (n *tcpNode) connect(dst int) (net.Conn, error) {
	for attempt := 0; ; attempt++ {
		addr := n.lookupAddr(dst)
		conn, err := n.dial.Dial(addr)
		if err != nil {
			return nil, err
		}
		retry, err := n.join(conn, dst)
		if err == nil {
			return conn, nil
		}
		conn.Close()
		if !retry || attempt+1 >= n.dial.Attempts {
			return nil, fmt.Errorf("tcp: join rank %d: %w", dst, err)
		}
		time.Sleep(n.dial.Backoff(attempt))
	}
}

func (n *tcpNode) join(conn net.Conn, dst int) (retry bool, err error) {
	b, _ := json.Marshal(&ctlMsg{
		WorldID: n.t.worldID, Epoch: n.epoch.Load(),
		Rank: n.rank, Peer: dst, Inc: n.inc,
	})
	if err := tcpconn.WithWriteDeadline(conn, n.writeTimeout, func() error {
		return tcpconn.WriteFrame(conn, tfJoin, b)
	}); err != nil {
		return true, err
	}
	conn.SetReadDeadline(time.Now().Add(n.hsTimeout))
	defer conn.SetReadDeadline(time.Time{})
	kind, payload, err := tcpconn.ReadFrame(conn)
	if err != nil {
		return true, err
	}
	switch kind {
	case tfJoinOK:
		return false, nil
	case tfJoinNo:
		var m ctlMsg
		json.Unmarshal(payload, &m)
		return true, fmt.Errorf("join refused: %s", m.Msg)
	default:
		return false, fmt.Errorf("unexpected join reply kind %d", kind)
	}
}

// sendAbort forwards this world's abort to the coordinator (best-effort).
func (n *tcpNode) sendAbort() {
	rank, msg := WatchdogRank, "abort with unrecorded cause"
	if ae := n.w.Aborted(); ae != nil {
		rank, msg = ae.Rank, ae.Error()
	}
	n.ctl.send(tfAbort, &ctlMsg{Rank: rank, Msg: msg, Epoch: n.epoch.Load()})
}

// ---- control reader ----

func (n *tcpNode) ctlReader() {
	defer n.wg.Done()
	defer close(n.ctlDown)
	for {
		kind, payload, err := tcpconn.ReadFrame(n.ctl.c)
		if err != nil {
			return
		}
		var m ctlMsg
		if err := json.Unmarshal(payload, &m); err != nil {
			return
		}
		switch kind {
		case tfLookupOK:
			n.mu.Lock()
			waiting := n.lookups[m.Peer]
			delete(n.lookups, m.Peer)
			n.mu.Unlock()
			for _, ch := range waiting {
				ch <- m.Addr
			}
		case tfCollOK:
			n.mu.Lock()
			ch := n.collW[collWKey{coll: m.Coll, gen: m.Gen}]
			delete(n.collW, collWKey{coll: m.Coll, gen: m.Gen})
			n.mu.Unlock()
			if ch != nil {
				ch <- &m
			}
		case tfAborted:
			// Epoch-stamped: a pre-recovery abort still buffered in the
			// control stream must not kill the epoch that replaced it.
			if m.Epoch == n.epoch.Load() && n.w.Aborted() == nil {
				n.w.abort(m.Rank, &RemoteAbort{Msg: m.Msg})
			}
		case tfPaired:
			if m.Epoch != n.epoch.Load() {
				break
			}
			key := persKey{src: m.Src, dst: m.Dst, tag: m.Tag, slot: m.Slot}
			n.mu.Lock()
			if p := n.persSend[key]; p != nil && n.rank == m.Src {
				p.setPaired(m.Parts)
			}
			if p := n.persRecv[key]; p != nil && n.rank == m.Dst {
				p.setPaired(m.Parts)
			}
			n.mu.Unlock()
		case tfVerdict:
			select {
			case n.verdictCh <- &m:
			default:
			}
		case tfHBAck:
			n.othersProgress.Store(m.Progress)
		}
	}
}

// ---- collectives ----

func (n *tcpNode) collective(coll, op int, bits []uint64) (*ctlMsg, bool) {
	n.mu.Lock()
	gen := n.collGen[coll]
	n.collGen[coll]++
	ch := make(chan *ctlMsg, 1)
	n.collW[collWKey{coll: coll, gen: gen}] = ch
	n.collWaiting[coll]++
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.collWaiting[coll]--
		n.mu.Unlock()
	}()
	if err := n.ctl.send(tfColl, &ctlMsg{
		Coll: coll, Gen: gen, Epoch: n.epoch.Load(), Rank: n.rank, Op: op, Bits: bits,
	}); err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d lost control connection: %w", n.rank, err))
		return nil, true
	}
	select {
	case resp := <-ch:
		return resp, false
	case <-n.w.abortCh:
		return nil, true
	case <-n.ctlDown:
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d lost control connection", n.rank))
		return nil, true
	}
}

// ---- heartbeats ----

// heartbeater keeps the control link warm (worker mode), pings every
// established data stream, and watches accepted streams for silence. A
// stream silent past the miss threshold is recorded (metric + flight
// event); past the dead threshold the peer is declared dead and the world
// aborts through the same machinery a watchdog stall uses — which is what
// hands the death to the supervised-recovery driver.
func (n *tcpNode) heartbeater() {
	defer n.wg.Done()
	tick := time.NewTicker(n.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-tick.C:
		}
		if n.t.coord == nil {
			n.ctl.send(tfHB, &ctlMsg{Rank: n.rank, Progress: n.t.localProgress.Load()})
		}
		n.mu.Lock()
		outs := make(map[int]*tcpOut, len(n.outs))
		for dst, o := range n.outs {
			outs[dst] = o
		}
		accepted := make([]*tcpAccepted, 0, len(n.accepted))
		for a := range n.accepted {
			accepted = append(accepted, a)
		}
		n.mu.Unlock()
		for dst, o := range outs {
			if !o.mu.TryLock() {
				continue // a data send owns the stream; that frame is the heartbeat
			}
			if o.conn != nil {
				if err := tcpconn.WithWriteDeadline(o.conn, n.writeTimeout, func() error {
					return tcpconn.WriteFrame(o.conn, tfHBData, nil)
				}); err != nil {
					o.conn.Close()
					o.conn = nil
					n.fl().Record(flight.KindDisconnect, int32(dst), -1, -1, 0, 0)
				}
			}
			o.mu.Unlock()
		}
		now := time.Now()
		for _, a := range accepted {
			idle := now.Sub(time.Unix(0, a.lastRecv.Load()))
			if idle > n.hbDead {
				if n.w.Aborted() == nil {
					n.w.abort(n.rank, fmt.Errorf("tcp: lost heartbeat from rank %d (no frames for %v)",
						a.src, idle.Truncate(time.Millisecond)))
				}
				continue
			}
			if idle > n.hbMiss {
				last := a.missAt.Load()
				if now.Sub(time.Unix(0, last)) > n.hbMiss && a.missAt.CompareAndSwap(last, now.UnixNano()) {
					if n.w.reg != nil {
						n.w.reg.Counter(metrics.TransportHeartbeatMissesTotal, metrics.Labels{
							"rank": strconv.Itoa(n.rank), "peer": strconv.Itoa(a.src),
						}).Inc()
					}
					n.fl().Record(flight.KindHeartbeatMiss, int32(a.src), -1, -1, 0, 0)
				}
			}
		}
	}
}

// ---- introspection ----

func (n *tcpNode) pendingCount() int { return len(n.pendingOps()) }

func (n *tcpNode) pendingOps() []PendingOp {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []PendingOp
	for _, r := range n.posted {
		out = append(out, PendingOp{Kind: "recv-posted", Src: r.src, Dst: n.rank, Tag: r.tag, Bytes: int64(8 * len(r.buf))})
	}
	for _, m := range n.unmatched {
		out = append(out, PendingOp{Kind: "send-unmatched", Src: m.src, Dst: n.rank, Tag: m.tag, Bytes: int64(8 * len(m.data))})
	}
	for _, p := range n.persSend {
		out = append(out, p.pendingOps()...)
	}
	for _, p := range n.persRecv {
		out = append(out, p.pendingOps()...)
	}
	return out
}

func (n *tcpNode) collectiveWaiters() (bar, red, gath int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.collWaiting[collBar], n.collWaiting[collRed], n.collWaiting[collGath]
}

func (n *tcpNode) persistentPending() (unmatched, live int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.persSend {
		u, l := p.pendingState()
		unmatched, live = unmatched+u, live+l
	}
	for _, p := range n.persRecv {
		u, l := p.pendingState()
		unmatched, live = unmatched+u, live+l
	}
	return
}

// ---- epoch lifecycle ----

// resetForEpoch moves the node onto a new epoch: every stream is cut,
// every sequence and match table restarts, and in-flight frames of the
// old epoch become stale-drops on arrival. peerInc survives — incarnation
// high-waters are exactly the state that must outlive an epoch so a dead
// rank's late frames stay dead.
func (n *tcpNode) resetForEpoch(ep uint64) {
	n.epoch.Store(ep)
	n.mu.Lock()
	conns := make([]net.Conn, 0, len(n.outs)+len(n.accepted))
	for _, o := range n.outs {
		o.mu.Lock()
		if o.conn != nil {
			conns = append(conns, o.conn)
			o.conn = nil
		}
		o.mu.Unlock()
	}
	for a := range n.accepted {
		conns = append(conns, a.conn)
	}
	n.outs = map[int]*tcpOut{}
	n.accepted = map[*tcpAccepted]struct{}{}
	n.posted = nil
	n.unmatched = nil
	n.lastSeq = map[int]uint64{}
	n.lookups = map[int][]chan string{}
	n.collW = map[collWKey]chan *ctlMsg{}
	n.collGen = [3]uint64{}
	n.collWaiting = [3]int{}
	n.persSend = map[persKey]*tcpPers{}
	n.persRecv = map[persKey]*tcpPers{}
	n.slotNext = map[slotKey]int{}
	n.early = map[persKey][]*earlyPersFrame{}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// parkForRecovery blocks this worker rank at the recovery barrier until
// the coordinator's verdict. A resume verdict carries the new epoch and
// the checkpoint step to replay from; anything else (give-up, a dead
// control link) ends the run with the published abort standing.
func (n *tcpNode) parkForRecovery() (resume bool, restoreStep int) {
	if err := n.ctl.send(tfPark, &ctlMsg{Rank: n.rank}); err != nil {
		return false, -1
	}
	for {
		select {
		case v := <-n.verdictCh:
			if v.Resume && v.Epoch <= n.epoch.Load() {
				continue // verdict of an epoch this node already left behind
			}
			if !v.Resume {
				return false, -1
			}
			n.resetForEpoch(v.Epoch)
			n.restore.Store(int64(v.Restore))
			n.w.rearmAbort()
			return true, v.Restore
		case <-n.ctlDown:
			return false, -1
		}
	}
}

func (n *tcpNode) close() {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.ln.Close()
		n.ctl.close()
		n.mu.Lock()
		for _, o := range n.outs {
			o.mu.Lock()
			if o.conn != nil {
				o.conn.Close()
				o.conn = nil
			}
			o.mu.Unlock()
		}
		for a := range n.accepted {
			a.conn.Close()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
}
