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
	"unsafe"

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

// Fixed binary header of tfData/tfPData payloads, little-endian: src, dst,
// tag (u32 each), the persistent channel id (u64, 0 on one-shot frames),
// epoch, incarnation, wireSeq, flight seq and cycle (u64 each), elems and
// nflips (u32 each). After the
// header come elems float64 payload words (little-endian IEEE bits) and
// nflips injected byte-flips (u32 offset, u8 mask, 3 zero pad bytes).
// wireSeq is stamped at flush time under the stream lock.
//
// The payload words are never encoded one by one: a sender writes its
// buffer's own bytes, and a receiver copies the frame's bytes straight into
// the receive buffer (wireBytes, copyWire). Only a big-endian host, whose
// memory order is not the wire's, converts word by word.
const tcpHdrLen = 68

type tcpHdr struct {
	src, dst, tag                  int
	id                             uint64
	epoch, inc, wireSeq, fseq, cyc uint64
	elems, nflips                  int
}

// appendDataHdr appends the encoding of h's header for a payload of elems
// words and nflips flips.
func appendDataHdr(dst []byte, h *tcpHdr, elems, nflips int) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(h.src))
	dst = le.AppendUint32(dst, uint32(h.dst))
	dst = le.AppendUint32(dst, uint32(h.tag))
	dst = le.AppendUint64(dst, h.id)
	dst = le.AppendUint64(dst, h.epoch)
	dst = le.AppendUint64(dst, h.inc)
	dst = le.AppendUint64(dst, h.wireSeq)
	dst = le.AppendUint64(dst, h.fseq)
	dst = le.AppendUint64(dst, h.cyc)
	dst = le.AppendUint32(dst, uint32(elems))
	return le.AppendUint32(dst, uint32(nflips))
}

// appendFlips appends the wire form of injected byte-flips.
func appendFlips(dst []byte, flips []fault.ByteFlip) []byte {
	for _, fl := range flips {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(fl.Off))
		dst = append(dst, fl.Mask, 0, 0, 0)
	}
	return dst
}

// decodeDataFrame decodes the header of data frame b into h and returns
// the payload's wire bytes, a view into b (decode them with copyWire).
// Flips, present only under fault injection, are freshly allocated. A
// frame it accepts re-encodes to exactly b.
func decodeDataFrame(b []byte, h *tcpHdr) ([]byte, []fault.ByteFlip, error) {
	if len(b) < tcpHdrLen {
		return nil, nil, fmt.Errorf("tcp: short data frame (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	*h = tcpHdr{
		src: int(int32(le.Uint32(b[0:]))), dst: int(int32(le.Uint32(b[4:]))),
		tag: int(int32(le.Uint32(b[8:]))), id: le.Uint64(b[12:]),
		epoch: le.Uint64(b[20:]), inc: le.Uint64(b[28:]),
		wireSeq: le.Uint64(b[36:]), fseq: le.Uint64(b[44:]), cyc: le.Uint64(b[52:]),
		elems: int(le.Uint32(b[60:])), nflips: int(le.Uint32(b[64:])),
	}
	want := tcpHdrLen + 8*h.elems + 8*h.nflips
	if len(b) != want {
		return nil, nil, fmt.Errorf("tcp: data frame length %d, header claims %d", len(b), want)
	}
	off := tcpHdrLen + 8*h.elems
	wire := b[tcpHdrLen:off]
	var flips []fault.ByteFlip
	if h.nflips > 0 {
		flips = make([]fault.ByteFlip, h.nflips)
		for i := range flips {
			if b[off+5]|b[off+6]|b[off+7] != 0 {
				return nil, nil, fmt.Errorf("tcp: data frame flip %d has nonzero padding", i)
			}
			flips[i] = fault.ByteFlip{Off: int(le.Uint32(b[off:])), Mask: b[off+4]}
			off += 8
		}
	}
	return wire, flips, nil
}

// littleEndian reports whether this host keeps a float64 in memory in the
// wire's byte order, so a buffer's own bytes are its wire bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireBytes returns the wire bytes of data: on a little-endian host its
// own storage, viewed in place; elsewhere an encoding appended to scratch,
// which it returns grown.
func wireBytes(data []float64, scratch []byte) (wire, grown []byte) {
	if littleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data)), scratch
	}
	n := len(scratch)
	scratch = encodeWords(scratch, data)
	return scratch[n:], scratch
}

// copyWire copies the wire bytes of len(dst) words into dst. It writes
// through dst's own bytes: wire is a view into a frame at an unaligned
// offset and is never read as words.
func copyWire(dst []float64, wire []byte) {
	if littleEndian {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), wire)
		return
	}
	decodeWords(dst, wire)
}

// encodeWords and decodeWords are the word-by-word codec of a host whose
// memory order is not the wire's.
func encodeWords(dst []byte, data []float64) []byte {
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeWords(dst []float64, wire []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(wire[8*i:]))
	}
}

// tcpFrame is one data frame of a call's batch: its kind and header, its
// payload viewed in place in the sender's buffer, its injected flips, and
// the send cycle whose payload it carries (nil for a one-shot message).
type tcpFrame struct {
	n     *tcpNode
	kind  byte
	h     tcpHdr
	data  []float64
	flips []fault.ByteFlip
	e     *cycle
	done  bool // taken by its destination's write
}

// tcpOut is the dialed stream to one peer. seq counts every data frame
// handed to the stream (dropped-by-injection ones included, which is what
// makes injected drops detectable as sequence gaps on the far side). A
// flush encodes its frames' headers into hdrs and lists each frame's
// buffers in iov — header, payload in place, flips — for one vectored
// write. The write consumes wv, a copy of iov over the array wvs, so a
// retry still has iov. All are reused, so a steady stream of flushes costs
// no allocation.
type tcpOut struct {
	mu            sync.Mutex
	conn          net.Conn
	seq           uint64
	everConnected bool
	hdrs          []byte
	iov, wvs      [][]byte
	wv            net.Buffers
}

// tcpAccepted is one accepted peer stream, monitored for heartbeat
// liveness: lastRecv is bumped by every frame, and the heartbeater
// compares its age against the miss/dead thresholds. epoch is the epoch it
// joined in; carried, read only by its reader, is the highest wire
// sequence of that epoch it has carried (0: none yet).
type tcpAccepted struct {
	conn     net.Conn
	src      int
	epoch    uint64
	carried  uint64
	lastRecv atomic.Int64 // UnixNano of the last frame
	missAt   atomic.Int64 // UnixNano of the last recorded miss (rate limit)
}

type tcpNode struct {
	t    *tcpTransport
	w    *World
	rank int
	inc  uint64
	ln   net.Listener
	ctl  *ctlConn
	dial tcpconn.DialPolicy

	epoch atomic.Uint64

	hbInterval, hbMiss, hbDead time.Duration
	writeTimeout, hsTimeout    time.Duration

	closed  chan struct{}
	ctlDown chan struct{}
	// verdictCh signals that last moved: the newest WELCOME or recovery
	// verdict from the coordinator (guarded by mu).
	verdictCh chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu       sync.Mutex
	last     ctlMsg
	lastSeq  map[int]uint64 // per-src wire sequence high-water, this epoch
	peerInc  map[int]uint64 // per-src incarnation high-water, survives epochs
	outs     map[int]*tcpOut
	lookups  map[int][]chan string
	persRecv map[uint64]*tcpLink // bound receive sides by channel id
	early    map[uint64][]*earlyPersFrame
	accepted map[*tcpAccepted]struct{}
}

// earlyPersFrame is a persistent frame held until it may land: parked in
// the node's early queue until its receive side binds the channel id, or
// on the endpoint until its receive cycle starts.
type earlyPersFrame struct {
	h     tcpHdr
	wire  []byte
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
		verdictCh:    make(chan struct{}, 1),
		lastSeq:      map[int]uint64{},
		peerInc:      map[int]uint64{},
		outs:         map[int]*tcpOut{},
		lookups:      map[int][]chan string{},
		persRecv:     map[uint64]*tcpLink{},
		early:        map[uint64][]*earlyPersFrame{},
		accepted:     map[*tcpAccepted]struct{}{},
	}
	n.dial.Seed = int64(rank)*7919 + 1
	conn, err := n.dial.Dial(t.coordAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("tcp: rank %d dial coordinator: %w", rank, err)
	}
	n.ctl = &ctlConn{c: conn, fr: tcpconn.FrameReader{R: conn}}
	if err := n.ctl.send(tfHello, &ctlMsg{Rank: rank, Addr: ln.Addr().String(), WorldID: t.worldID}); err != nil {
		n.ctl.close()
		ln.Close()
		return nil, fmt.Errorf("tcp: rank %d hello: %w", rank, err)
	}
	conn.SetReadDeadline(time.Now().Add(n.hsTimeout))
	kind, payload, err := n.ctl.fr.Next()
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
	n.last = welcome
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
	// One reader for the stream's life: the read that lands the JOIN may
	// land the frames behind it too. Its buffer is reused frame to frame:
	// every delivery copies out of it before the next read.
	fr := tcpconn.FrameReader{R: conn}
	conn.SetReadDeadline(time.Now().Add(n.hsTimeout))
	kind, payload, err := fr.Next()
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
	a := &tcpAccepted{conn: conn, src: join.Rank, epoch: join.Epoch}
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
			n.checkHeartbeat(a, payload)
		case tfData, tfPData:
			a.carried = max(a.carried, n.handleData(kind, payload))
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
// "deliver once or abort", never "maybe". A frame is handed on under the
// lock its sequence was checked under: a redial can leave two readers of
// one source, and the lock keeps frames k and k+1 in order across it. It
// returns the frame's wire sequence if the frame is of this epoch and a
// live incarnation, delivered or a duplicate, and 0 otherwise.
func (n *tcpNode) handleData(kind byte, frame []byte) uint64 {
	var h tcpHdr
	wire, flips, err := decodeDataFrame(frame, &h)
	if err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d: %w", n.rank, err))
		return 0
	}
	n.mu.Lock()
	if h.epoch != n.epoch.Load() || h.inc < n.peerInc[h.src] {
		n.mu.Unlock()
		n.countFrame("stale-drop")
		return 0
	}
	last := n.lastSeq[h.src]
	if h.wireSeq <= last {
		n.mu.Unlock()
		n.countFrame("dup-drop")
		return h.wireSeq
	}
	if h.wireSeq != last+1 {
		n.mu.Unlock()
		n.abortLost(h.src, h.wireSeq-last-1, fmt.Sprintf("wire seq jumped %d -> %d", last, h.wireSeq))
		return 0
	}
	n.lastSeq[h.src] = h.wireSeq
	switch kind {
	case tfData:
		n.countFrame("data")
		// wire views the reused frame buffer: lent for the call, no release.
		n.w.arrive(n.rank, arrival{src: h.src, tag: h.tag, seq: h.fseq, payload: payload{wire: wire, flips: flips}})
	case tfPData:
		n.countFrame("pdata")
		n.deliverPers(&h, wire, flips)
	}
	n.mu.Unlock()
	return h.wireSeq
}

// checkHeartbeat judges a data-stream heartbeat of stream a. Its sender
// stamps the sequence of the last frame stamped on the stream, dropped
// ones included (a heartbeat without one is not judged). The reader has
// handled every frame the stream carried before it, so a stamp above the
// source's high-water means frames that never reached the wire: the same
// loss handleData reports at the next frame's gap, reported here when no
// next frame comes. Only a stream of this epoch that has itself carried a
// frame is judged: a redialed stream's stamp can count frames still unread
// on the stream it replaced, which that stream's own reader delivers.
func (n *tcpNode) checkHeartbeat(a *tcpAccepted, payload []byte) {
	if len(payload) != 8 || a.carried == 0 {
		return
	}
	stamp := binary.LittleEndian.Uint64(payload)
	n.mu.Lock()
	last := n.lastSeq[a.src]
	live := a.epoch == n.epoch.Load()
	n.mu.Unlock()
	if live && stamp > last {
		n.abortLost(a.src, stamp-last, fmt.Sprintf("heartbeat seq %d, last frame %d", stamp, last))
	}
}

// abortLost aborts the world for k frames from src lost in flight.
func (n *tcpNode) abortLost(src int, k uint64, why string) {
	n.w.abort(n.rank, fmt.Errorf("tcp: lost %d frame(s) from rank %d on rank %d (%s)", k, src, n.rank, why))
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

// batch is the frames one API call sends on tcp — Start, Startall, a
// one-shot send. The tcp link queues a payload's frame in it at put, and
// the call flushes it before it returns, so every payload is on its way by
// the time the call is. chan and shmem move a payload at put, so their
// calls take no batch (nil). A batch belongs to its call, never to a node
// or an endpoint: calls on one rank may run concurrently, and each takes
// its own from its Comm's free list, which the flush refills.
type batch struct {
	c   *Comm
	tcp []tcpFrame
}

// batchPool is a Comm's free list of batches: a steady stream of calls
// reuses the same few, grown once, and allocates nothing.
type batchPool struct {
	mu   sync.Mutex
	free []*batch
}

// batch takes a batch for one call on c: nil unless the world runs on tcp.
func (c *Comm) batch() *batch {
	if _, ok := c.world.tr.(*tcpTransport); !ok {
		return nil
	}
	p := &c.batches
	p.mu.Lock()
	if i := len(p.free) - 1; i >= 0 {
		b := p.free[i]
		p.free = p.free[:i]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return &batch{c: c}
}

// flush writes what the call queued and returns the batch to its Comm. A
// call defers it, so the payloads it put before a misuse panic still go
// out, as they do on the backends that move a payload at put.
func (b *batch) flush() {
	if b == nil {
		return
	}
	if len(b.tcp) > 0 {
		b.write()
		clear(b.tcp)
		b.tcp = b.tcp[:0]
	}
	p := &b.c.batches
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// write writes a batch's frames: for each destination, in the order of
// its first frame, one vectored write under the stream lock; then, its
// write returned, each payload's sent.
func (b *batch) write() {
	fs := b.tcp
	for i := range fs {
		if fs[i].done {
			continue
		}
		n, dst := fs[i].n, fs[i].h.dst
		n.writeFrames(dst, fs[i:])
		for j := i; j < len(fs); j++ {
			if f := &fs[j]; f.e != nil && f.n == n && f.h.dst == dst {
				f.e.mu.Lock()
				f.e.sent()
				f.e.mu.Unlock()
			}
		}
	}
}

// frameHdrSlot reserves a frame header in a stream's header buffer; it is
// written once the frame's CRC is known.
var frameHdrSlot [tcpconn.HeaderBytes]byte

// writeFrames writes the frames of fs that n sends to dst, stamping each
// the stream's next wire sequence and applying any injected network fault
// frame by frame, in order: a delay sleeps before the frame, a partition
// writes the frames before it and then severs the stream, a drop skips the
// frame — its sequence number is spent, so the receiver sees the gap and
// fails loud, which is the point of deterministic drop injection — and a
// dup lists the frame twice. A write that still fails after a reconnect
// attempt means the redial budget is spent: the world aborts rather than
// hangs.
func (n *tcpNode) writeFrames(dst int, fs []tcpFrame) {
	o := n.out(dst)
	o.mu.Lock()
	// Unlock by defer: connect (inside writev) panics when the world
	// aborts mid-dial, and a mutex orphaned by that panic would deadlock
	// Close on the unwinding path.
	defer o.mu.Unlock()
	o.hdrs = o.hdrs[:0]
	for i := range fs {
		f := &fs[i]
		if f.done || f.n != n || f.h.dst != dst {
			continue
		}
		f.done = true
		if size := tcpHdrLen + 8*len(f.data) + 8*len(f.flips); size > tcpconn.MaxPayload {
			n.w.abort(n.rank, fmt.Errorf("tcp: send to rank %d: frame payload of %d bytes exceeds the %d-byte cap", dst, size, tcpconn.MaxPayload))
			panic(n.w.Aborted())
		}
		o.seq++
		f.h.wireSeq = o.seq
		// Frames on reserved tags (collectives, pairing descriptors) bypass
		// network faults, as they bypass every other injected fault: the
		// frame ordinals of a fault spec count user traffic only.
		var v fault.NetVerdict
		if flt := n.w.fault; flt != nil && f.h.tag >= 0 {
			v = flt.NetFrame(n.rank, dst)
		}
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
		if v.Partition > 0 {
			n.writev(o, dst)
			if o.conn != nil {
				o.conn.Close()
				o.conn = nil
				n.fl().Record(flight.KindDisconnect, int32(dst), -1, -1, 0, 0)
			}
			time.Sleep(v.Partition)
		}
		if v.Drop {
			n.countFrame("net-drop")
			continue
		}
		k := len(o.iov)
		o.queue(f)
		if v.Dup {
			n.countFrame("net-dup")
			o.iov = append(o.iov, o.iov[k:]...)
		}
	}
	n.writev(o, dst)
}

// queue (o.mu held) encodes frame f's frame and data headers into o.hdrs
// and lists its buffers in o.iov: the headers, the payload viewed in
// place, the flips. The frame CRC runs over the same buffers in wire
// order. Earlier frames' views into o.hdrs stay valid if it grows: the old
// array keeps their bytes.
func (o *tcpOut) queue(f *tcpFrame) {
	at := len(o.hdrs)
	o.hdrs = append(o.hdrs, frameHdrSlot[:]...)
	o.hdrs = appendDataHdr(o.hdrs, &f.h, len(f.data), len(f.flips))
	mid := len(o.hdrs)
	var wire []byte
	wire, o.hdrs = wireBytes(f.data, o.hdrs)
	fl := len(o.hdrs)
	o.hdrs = appendFlips(o.hdrs, f.flips)
	hdr, flips := o.hdrs[at:mid], o.hdrs[fl:]
	crc := tcpconn.UpdateCRC(tcpconn.StartCRC(f.kind), hdr[tcpconn.HeaderBytes:])
	crc = tcpconn.UpdateCRC(tcpconn.UpdateCRC(crc, wire), flips)
	tcpconn.AppendHeader(hdr[:0], f.kind, len(hdr)-tcpconn.HeaderBytes+len(wire)+len(flips), crc)
	o.iov = append(o.iov, hdr)
	if len(wire) > 0 {
		o.iov = append(o.iov, wire)
	}
	if len(flips) > 0 {
		o.iov = append(o.iov, flips)
	}
}

// writev (o.mu held) writes the frames listed in o.iov with one vectored
// write, dialing or redialing the peer as needed, and empties the list.
// One reconnect is attempted per write, resending the whole list: the
// receiver drops by sequence whatever of it the failed stream delivered.
// The dial itself carries the backoff budget.
func (n *tcpNode) writev(o *tcpOut, dst int) {
	if len(o.iov) == 0 {
		return
	}
	if err := n.tryWritev(o, dst); err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: send to rank %d failed (reconnect budget exhausted): %w", dst, err))
		panic(n.w.Aborted())
	}
	clear(o.iov)
	o.iov = o.iov[:0]
	if n.w.reg != nil {
		n.w.reg.Counter(metrics.TransportWritesTotal, nil).Inc()
	}
}

func (n *tcpNode) tryWritev(o *tcpOut, dst int) error {
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
		o.wvs = append(o.wvs[:0], o.iov...)
		o.wv = o.wvs
		err := tcpconn.WithWriteDeadline(o.conn, n.writeTimeout, func() error {
			_, err := o.wv.WriteTo(o.conn)
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

// ---- control reader ----

func (n *tcpNode) ctlReader() {
	defer n.wg.Done()
	defer close(n.ctlDown)
	for {
		kind, payload, err := n.ctl.fr.Next()
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
		case tfAborted:
			// Epoch-stamped, and checked under roundMu: a pre-recovery
			// abort still buffered in the control stream must not kill the
			// epoch that replaced it.
			n.w.roundMu.Lock()
			if m.Epoch == n.epoch.Load() && n.w.Aborted() == nil {
				n.w.abort(m.Rank, &RemoteAbort{Msg: m.Msg})
			}
			n.w.roundMu.Unlock()
		case tfVerdict:
			n.mu.Lock()
			n.last = m
			n.mu.Unlock()
			select {
			case n.verdictCh <- struct{}{}:
			default:
			}
		case tfHBAck:
			n.t.othersProgress.Store(m.Progress)
		}
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
				stamp := binary.LittleEndian.AppendUint64(nil, o.seq)
				if err := tcpconn.WithWriteDeadline(o.conn, n.writeTimeout, func() error {
					return tcpconn.WriteFrame(o.conn, tfHBData, stamp)
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
	n.lastSeq = map[int]uint64{}
	n.lookups = map[int][]chan string{}
	n.persRecv = map[uint64]*tcpLink{}
	n.early = map[uint64][]*earlyPersFrame{}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
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
