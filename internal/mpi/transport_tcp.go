package mpi

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/mpi/tcpconn"
)

// The tcp backend moves the wire protocol onto loopback TCP streams, so the
// ranks of a world may live in separate worker processes connected only by
// sockets — the shape a multi-node deployment takes, with the robustness
// problems sockets bring: connections drop, peers vanish silently, frames
// arrive late, duplicated, or not at all. The backend is built around those
// failures instead of around their absence:
//
//   - Every stream carries length-prefixed CRC-checked frames (tcpconn), so
//     corruption is detected at the framing layer before dispatch.
//   - Data connections dial and RE-dial under an exponential-backoff-with-
//     jitter policy and an attempt budget; a respawning peer has seconds to
//     come back before the budget is spent, and budget exhaustion aborts the
//     world loudly instead of hanging it.
//   - Every established connection is heartbeated; a peer silent past the
//     dead threshold aborts the world through the same watchdog/abort
//     machinery a stall uses.
//   - Frames are stamped with (epoch, incarnation, per-connection sequence):
//     stale pre-crash traffic is discarded by stamp, duplicated frames are
//     dropped exactly-once by sequence, and a sequence gap — a lost frame —
//     fails loud.
//
// Topology: one coordinator (the process that called NewWorldOn) runs a
// small control server — rendezvous handshake, address lookup, collective
// combining, abort broadcast, persistent-endpoint pairing, recovery-round
// verdicts — and every rank runs a node holding the data path: a listener
// plus one framed stream per peer it talks to, carrying one-shot,
// persistent, and partitioned traffic directly rank-to-rank. In-process
// worlds attach one node per rank lazily (newComm); worker processes attach
// their single rank from the BRICK_TCP_WORLD environment contract.

func init() {
	RegisterTransport("tcp",
		"every rank a worker process (or in-process goroutine) over loopback TCP with CRC-framed streams, reconnect/backoff, and heartbeat liveness",
		newTCPWorldTransport)
}

// EnvTCPWorld carries the worker attach contract: "addr|worldID|size",
// where addr is the coordinator's control listener.
const EnvTCPWorld = "BRICK_TCP_WORLD"

// Control and data frame kinds. Control frames (ctl connection to the
// coordinator) carry JSON ctlMsg payloads; data frames (rank-to-rank
// connections) carry the fixed binary layout in tcp_node.go, except the
// JOIN handshake which reuses ctlMsg.
const (
	tfHello    = 1  // worker → coord: here I am (rank, data addr, world id)
	tfWelcome  = 2  // coord → worker: world parameters (size, epoch, incarnation)
	tfLookup   = 3  // node → coord: where is rank Peer?
	tfLookupOK = 4  // coord → node: rank Peer listens at Addr
	tfColl     = 5  // node → coord: collective contribution
	tfCollOK   = 6  // coord → node: collective result
	tfAbort    = 7  // node → coord: my world aborted (rank, rendered cause)
	tfAborted  = 8  // coord → node: the world is aborted (rank, rendered cause)
	tfPark     = 9  // node → coord: parked at the recovery barrier
	tfVerdict  = 10 // coord → node: recovery verdict (resume/give-up, epoch, step)
	tfHB       = 11 // worker → coord: control heartbeat + local progress
	tfHBAck    = 12 // coord → worker: sum of the other ranks' progress
	tfPReg     = 13 // node → coord: persistent endpoint registered
	tfPaired   = 14 // coord → node: persistent endpoint pair complete

	tfJoin   = 20 // data dial handshake: who I am, which epoch/incarnation
	tfJoinOK = 21 // data accept: welcome
	tfJoinNo = 22 // data reject: stale epoch/incarnation or wrong world
	tfData   = 23 // one-shot message
	tfPData  = 24 // persistent (unpartitioned) cycle payload
	tfPPart  = 25 // partitioned cycle partition span
	tfHBData = 26 // data-connection heartbeat (empty payload)
)

// Collective codes carried in ctlMsg.Coll.
const (
	collBar  = 0
	collRed  = 1
	collGath = 2
)

// ctlMsg is the single JSON envelope of every control frame; which fields
// are meaningful depends on the frame kind. Bits/Rows carry float64
// payloads as Float64bits so collective results cross the wire
// bit-identically.
type ctlMsg struct {
	Rank     int        `json:"rank"`
	Peer     int        `json:"peer"`
	Addr     string     `json:"addr"`
	Size     int        `json:"size"`
	WorldID  uint64     `json:"world"`
	Epoch    uint64     `json:"epoch"`
	Inc      uint64     `json:"inc"`
	Restore  int        `json:"restore"`
	Msg      string     `json:"msg"`
	Coll     int        `json:"coll"`
	Gen      uint64     `json:"gen"`
	Op       int        `json:"op"`
	Bits     []uint64   `json:"bits"`
	Rows     [][]uint64 `json:"rows"`
	Resume   bool       `json:"resume"`
	Src      int        `json:"src"`
	Dst      int        `json:"dst"`
	Tag      int        `json:"tag"`
	Slot     int        `json:"slot"`
	Parts    int        `json:"parts"`
	Psend    bool       `json:"psend"`
	Progress int64      `json:"progress"`
}

// Connection-robustness tunables, captured into each node at attach so
// tests can tighten them without racing live nodes.
var (
	// tcpDialPolicyBase is the dial/reconnect retry policy template; each
	// node derives its own (seeded) copy.
	tcpDialPolicyBase = tcpconn.DefaultDialPolicy()
	// tcpWriteTimeout bounds every frame write, so a peer that stopped
	// draining cannot block a sender forever.
	tcpWriteTimeout = 10 * time.Second
	// tcpHandshakeTimeout bounds the HELLO/WELCOME and JOIN round trips.
	tcpHandshakeTimeout = 10 * time.Second
	// tcpHBInterval is the heartbeat cadence on control and established
	// data connections.
	tcpHBInterval = 250 * time.Millisecond
	// tcpHBMissAfter is the silent-connection age that counts (and flight-
	// records) a heartbeat miss.
	tcpHBMissAfter = 2 * time.Second
	// tcpHBDeadAfter is the silent-connection age that declares the peer
	// dead and aborts the world.
	tcpHBDeadAfter = 15 * time.Second
)

var tcpWorldSeq atomic.Uint64

// ctlConn is one framed control connection with serialized writes.
type ctlConn struct {
	mu sync.Mutex
	c  net.Conn
}

func (cc *ctlConn) send(kind byte, m *ctlMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return tcpconn.WithWriteDeadline(cc.c, tcpWriteTimeout, func() error {
		return tcpconn.WriteFrame(cc.c, kind, b)
	})
}

func (cc *ctlConn) close() { cc.c.Close() }

// tcpTransport is the backend handle held by a World. In the coordinator
// process it owns the control server (coord != nil); in a worker process it
// holds exactly one node, attached from the environment contract.
type tcpTransport struct {
	w         *World
	worldID   uint64
	coordAddr string
	coord     *tcpCoord // nil in worker processes

	mu     sync.Mutex
	nodes  map[int]*tcpNode
	closed bool

	// localProgress is this process's share of the world-wide watchdog
	// counter; workers exchange it with the coordinator over heartbeats.
	localProgress atomic.Int64
}

func newTCPWorldTransport(w *World) (Transport, error) {
	t := &tcpTransport{w: w, nodes: map[int]*tcpNode{}}
	t.worldID = uint64(os.Getpid())<<20 | (tcpWorldSeq.Add(1) & (1<<20 - 1))
	coord, err := newTCPCoord(w, t.worldID, w.size)
	if err != nil {
		return nil, err
	}
	t.coord = coord
	t.coordAddr = coord.ln.Addr().String()
	return t, nil
}

// AttachTCPWorld connects a worker process to an existing tcp world using
// the BRICK_TCP_WORLD contract and returns the world; the caller then runs
// exactly one rank with World.RunRank.
func AttachTCPWorld(rank int) (*World, error) {
	spec := os.Getenv(EnvTCPWorld)
	parts := strings.Split(spec, "|")
	if len(parts) != 3 {
		return nil, fmt.Errorf("mpi: attaching tcp world: malformed %s=%q (want addr|worldID|size)", EnvTCPWorld, spec)
	}
	worldID, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("mpi: attaching tcp world: bad world id in %s=%q", EnvTCPWorld, spec)
	}
	size, err := strconv.Atoi(parts[2])
	if err != nil || size <= 0 {
		return nil, fmt.Errorf("mpi: attaching tcp world: bad size in %s=%q", EnvTCPWorld, spec)
	}
	w := &World{size: size, abortCh: make(chan struct{})}
	t := &tcpTransport{w: w, worldID: worldID, coordAddr: parts[0], nodes: map[int]*tcpNode{}}
	w.tr = t
	w.sprog = t
	if err := t.attachRank(rank); err != nil {
		return nil, fmt.Errorf("mpi: attaching tcp world: %w", err)
	}
	return w, nil
}

// rankAttacher is implemented by backends whose per-rank state must be
// built before a rank's Comm is handed out (newComm calls it).
type rankAttacher interface {
	attachOnDemand(rank int)
}

func (t *tcpTransport) attachOnDemand(rank int) {
	if err := t.attachRank(rank); err != nil {
		panic(fmt.Sprintf("mpi: tcp rank %d attach: %v", rank, err))
	}
}

// attachRank builds (idempotently) the data-path node for one rank:
// listener, control connection, HELLO/WELCOME handshake, reader and
// heartbeat goroutines.
func (t *tcpTransport) attachRank(rank int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("tcp: attach rank %d on a closed world", rank)
	}
	if t.nodes[rank] != nil {
		return nil
	}
	n, err := newTCPNode(t, rank)
	if err != nil {
		return err
	}
	t.nodes[rank] = n
	return nil
}

// node returns rank's attached node, panicking on use-before-attach (a
// programmer error: Comms attach their rank in newComm, workers at
// AttachTCPWorld).
func (t *tcpTransport) node(rank int) *tcpNode {
	t.mu.Lock()
	n := t.nodes[rank]
	t.mu.Unlock()
	if n == nil {
		panic(fmt.Sprintf("mpi: tcp rank %d used before attach", rank))
	}
	return n
}

func (t *tcpTransport) snapshotNodes() []*tcpNode {
	t.mu.Lock()
	out := make([]*tcpNode, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, n)
	}
	t.mu.Unlock()
	return out
}

func (t *tcpTransport) name() string { return "tcp" }

func (t *tcpTransport) isend(c *Comm, dst, tag int, buf []float64, flips []fault.ByteFlip, seq uint64) *Request {
	return t.node(c.rank).isend(c, dst, tag, buf, flips, seq)
}

func (t *tcpTransport) irecv(c *Comm, src, tag int, buf []float64) *Request {
	return t.node(c.rank).irecv(c, src, tag, buf)
}

func (t *tcpTransport) sendInit(c *Comm, dst, tag int, buf []float64) *Request {
	return t.node(c.rank).sendInit(c, dst, tag, buf)
}

func (t *tcpTransport) recvInit(c *Comm, src, tag int, buf []float64) *Request {
	return t.node(c.rank).recvInit(c, src, tag, buf)
}

func (t *tcpTransport) barrier(rank int) bool {
	_, aborted := t.node(rank).collective(collBar, 0, nil)
	return aborted
}

func (t *tcpTransport) allreduce(rank int, op Op, in []float64) ([]float64, bool) {
	resp, aborted := t.node(rank).collective(collRed, int(op), floatsToBits(in))
	if aborted {
		return nil, true
	}
	return bitsToFloats(resp.Bits), false
}

func (t *tcpTransport) gather(rank int, in []float64) ([][]float64, bool) {
	resp, aborted := t.node(rank).collective(collGath, 0, floatsToBits(in))
	if aborted {
		return nil, true
	}
	if rank != 0 {
		return nil, false
	}
	out := make([][]float64, len(resp.Rows))
	for i, row := range resp.Rows {
		out[i] = bitsToFloats(row)
	}
	return out, false
}

func (t *tcpTransport) abortAll() {
	if t.coord != nil {
		rank, msg := WatchdogRank, "abort with unrecorded cause"
		if ae := t.w.Aborted(); ae != nil {
			rank, msg = ae.Rank, ae.Error()
		}
		t.coord.publishAbort(rank, msg)
		return
	}
	// Worker: forward the abort to the coordinator (best-effort — if the
	// control link is down the coordinator's heartbeat loss or the
	// supervisor's reaping takes over). Local waiters watch w.abortCh.
	for _, n := range t.snapshotNodes() {
		n.sendAbort()
	}
}

func (t *tcpTransport) pendingCount() int {
	n := 0
	for _, nd := range t.snapshotNodes() {
		n += nd.pendingCount()
	}
	return n
}

func (t *tcpTransport) pendingOps() []PendingOp {
	var out []PendingOp
	for _, nd := range t.snapshotNodes() {
		out = append(out, nd.pendingOps()...)
	}
	return out
}

func (t *tcpTransport) collectiveWaiters() (bar, red, gath int) {
	for _, nd := range t.snapshotNodes() {
		b, r, g := nd.collectiveWaiters()
		bar, red, gath = bar+b, red+r, gath+g
	}
	return
}

func (t *tcpTransport) persistentPending() (unmatched, live int) {
	for _, nd := range t.snapshotNodes() {
		u, l := nd.persistentPending()
		unmatched, live = unmatched+u, live+l
	}
	return
}

// reset wipes wire state for an in-process Respawn: bump the world epoch at
// the coordinator (no incarnations change — no rank died) and move every
// local node onto it. Worker processes cannot reset a world they do not
// coordinate; their epochs move through recovery verdicts.
func (t *tcpTransport) reset() error {
	if t.coord == nil {
		return fmt.Errorf("tcp: reset from a worker process (epochs advance by recovery verdict)")
	}
	ep := t.coord.bumpEpoch(nil, -1)
	for _, n := range t.snapshotNodes() {
		n.resetForEpoch(ep)
	}
	return nil
}

func (t *tcpTransport) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	nodes := make([]*tcpNode, 0, len(t.nodes))
	for _, n := range t.nodes {
		nodes = append(nodes, n)
	}
	t.mu.Unlock()
	for _, n := range nodes {
		n.close()
	}
	if t.coord != nil {
		t.coord.close()
	}
	return nil
}

// sharedProgress: workers learn the other processes' progress through
// control heartbeats; the coordinator sums what workers reported.
func (t *tcpTransport) progressTickShared() { t.localProgress.Add(1) }

func (t *tcpTransport) progressShared() int64 {
	sum := t.localProgress.Load()
	if t.coord != nil {
		sum += t.coord.progressSum(-1)
		return sum
	}
	for _, n := range t.snapshotNodes() {
		sum += n.othersProgress.Load()
	}
	return sum
}

func floatsToBits(in []float64) []uint64 {
	if in == nil {
		return nil
	}
	out := make([]uint64, len(in))
	for i, v := range in {
		out[i] = math.Float64bits(v)
	}
	return out
}

func bitsToFloats(in []uint64) []float64 {
	if in == nil {
		return nil
	}
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = math.Float64frombits(v)
	}
	return out
}

// ---- coordinator ----

type collKey struct {
	epoch uint64
	coll  int
	gen   uint64
}

type collState struct {
	vals  [][]uint64 // per-rank contribution (allreduce/gather)
	conns []*ctlConn // per-rank reply target
	got   []bool
	n     int
	op    int
}

type pairKey struct {
	epoch         uint64
	src, dst, tag int
	slot          int
}

type pairState struct {
	sendCC, recvCC   *ctlConn
	sendSet, recvSet bool
	parts            int
}

// tcpCoord is the control server: one per world, living in the process
// that built it. Every handler runs on the owning connection's serve
// goroutine, so frames from one node are processed in order — the property
// persistent-endpoint pairing and the barrier-after-registration idiom
// rely on.
type tcpCoord struct {
	w       *World
	worldID uint64
	size    int
	ln      net.Listener
	done    chan struct{}
	wg      sync.WaitGroup
	// roundMu orders a worker's abort (epoch check, then World.abort)
	// against a recovery round's epoch bump and abort re-arm, so a late
	// abort from the old epoch can neither race the re-arm nor kill the
	// new epoch.
	roundMu sync.Mutex

	mu        sync.Mutex
	epoch     uint64
	restore   int // checkpoint step the current epoch restores from, -1 none
	incs      []uint64
	addrs     map[int]string
	byRank    map[int]*ctlConn
	waiters   map[int][]*ctlConn // conns waiting for a rank's address
	conns     map[*ctlConn]bool
	abortSet  bool
	abortRank int
	abortMsg  string
	parked    map[int]bool
	colls     map[collKey]*collState
	pairs     map[pairKey]*pairState
	progress  []int64
}

func newTCPCoord(w *World, worldID uint64, size int) (*tcpCoord, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tcp: coordinator listen: %w", err)
	}
	c := &tcpCoord{
		w: w, worldID: worldID, size: size, ln: ln,
		done:     make(chan struct{}),
		restore:  -1,
		incs:     make([]uint64, size),
		addrs:    map[int]string{},
		byRank:   map[int]*ctlConn{},
		waiters:  map[int][]*ctlConn{},
		conns:    map[*ctlConn]bool{},
		parked:   map[int]bool{},
		colls:    map[collKey]*collState{},
		pairs:    map[pairKey]*pairState{},
		progress: make([]int64, size),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

func (c *tcpCoord) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		cc := &ctlConn{c: conn}
		c.mu.Lock()
		c.conns[cc] = true
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serve(cc)
	}
}

func (c *tcpCoord) serve(cc *ctlConn) {
	defer c.wg.Done()
	defer func() {
		cc.close()
		c.mu.Lock()
		delete(c.conns, cc)
		for r, owner := range c.byRank {
			if owner == cc {
				delete(c.byRank, r)
			}
		}
		c.mu.Unlock()
	}()
	for {
		kind, payload, err := tcpconn.ReadFrame(cc.c)
		if err != nil {
			return
		}
		var m ctlMsg
		if err := json.Unmarshal(payload, &m); err != nil {
			return
		}
		c.handle(cc, kind, &m)
	}
}

func (c *tcpCoord) handle(cc *ctlConn, kind byte, m *ctlMsg) {
	switch kind {
	case tfHello:
		if m.WorldID != c.worldID {
			cc.send(tfAborted, &ctlMsg{Rank: WatchdogRank, Epoch: m.Epoch,
				Msg: fmt.Sprintf("tcp: hello for world %d on world %d", m.WorldID, c.worldID)})
			return
		}
		c.mu.Lock()
		c.addrs[m.Rank] = m.Addr
		c.byRank[m.Rank] = cc
		welcome := &ctlMsg{Size: c.size, Epoch: c.epoch, Inc: c.incs[m.Rank],
			Restore: c.restore, WorldID: c.worldID}
		waiting := c.waiters[m.Rank]
		delete(c.waiters, m.Rank)
		aborted, aRank, aMsg := c.abortSet, c.abortRank, c.abortMsg
		c.mu.Unlock()
		cc.send(tfWelcome, welcome)
		for _, w := range waiting {
			w.send(tfLookupOK, &ctlMsg{Peer: m.Rank, Addr: m.Addr})
		}
		if aborted {
			cc.send(tfAborted, &ctlMsg{Rank: aRank, Msg: aMsg, Epoch: welcome.Epoch})
		}
	case tfLookup:
		c.mu.Lock()
		addr, known := c.addrs[m.Peer]
		if !known {
			c.waiters[m.Peer] = append(c.waiters[m.Peer], cc)
		}
		c.mu.Unlock()
		if known {
			cc.send(tfLookupOK, &ctlMsg{Peer: m.Peer, Addr: addr})
		}
	case tfColl:
		c.handleColl(cc, m)
	case tfAbort:
		c.roundMu.Lock()
		c.mu.Lock()
		stale := m.Epoch != c.epoch
		c.mu.Unlock()
		if !stale {
			c.w.abort(m.Rank, &RemoteAbort{Msg: m.Msg})
		}
		c.roundMu.Unlock()
	case tfPark:
		c.mu.Lock()
		c.parked[m.Rank] = true
		c.mu.Unlock()
	case tfHB:
		c.mu.Lock()
		if m.Rank >= 0 && m.Rank < c.size && m.Progress > c.progress[m.Rank] {
			c.progress[m.Rank] = m.Progress
		}
		others := int64(0)
		for r, p := range c.progress {
			if r != m.Rank {
				others += p
			}
		}
		c.mu.Unlock()
		cc.send(tfHBAck, &ctlMsg{Progress: others})
	case tfPReg:
		c.handlePReg(cc, m)
	}
}

func (c *tcpCoord) handleColl(cc *ctlConn, m *ctlMsg) {
	key := collKey{epoch: m.Epoch, coll: m.Coll, gen: m.Gen}
	c.mu.Lock()
	if m.Epoch != c.epoch || m.Rank < 0 || m.Rank >= c.size {
		c.mu.Unlock()
		return // stale epoch: the contribution belongs to a dead round
	}
	st := c.colls[key]
	if st == nil {
		st = &collState{vals: make([][]uint64, c.size), conns: make([]*ctlConn, c.size),
			got: make([]bool, c.size)}
		c.colls[key] = st
	}
	if !st.got[m.Rank] {
		st.got[m.Rank] = true
		st.n++
		st.vals[m.Rank] = m.Bits
		st.conns[m.Rank] = cc
		if m.Coll == collRed {
			st.op = m.Op
		}
	}
	complete := st.n == c.size
	if complete {
		delete(c.colls, key)
	}
	c.mu.Unlock()
	if !complete {
		return
	}
	switch m.Coll {
	case collBar:
		for r, peer := range st.conns {
			peer.send(tfCollOK, &ctlMsg{Coll: m.Coll, Gen: m.Gen, Rank: r})
		}
	case collRed:
		acc := append([]uint64(nil), st.vals[0]...)
		accF := bitsToFloats(acc)
		op := Op(st.op)
		for rk := 1; rk < c.size; rk++ {
			v := st.vals[rk]
			if len(v) != len(accF) {
				c.publishAbort(rk, fmt.Sprintf("mpi: Allreduce length mismatch: %d vs %d", len(accF), len(v)))
				return
			}
			for i, bits := range v {
				accF[i] = op.apply(accF[i], math.Float64frombits(bits))
			}
		}
		out := floatsToBits(accF)
		for r, peer := range st.conns {
			peer.send(tfCollOK, &ctlMsg{Coll: m.Coll, Gen: m.Gen, Rank: r, Bits: out})
		}
	case collGath:
		for r, peer := range st.conns {
			reply := &ctlMsg{Coll: m.Coll, Gen: m.Gen, Rank: r}
			if r == 0 {
				reply.Rows = st.vals
			}
			peer.send(tfCollOK, reply)
		}
	}
}

func (c *tcpCoord) handlePReg(cc *ctlConn, m *ctlMsg) {
	key := pairKey{epoch: m.Epoch, src: m.Src, dst: m.Dst, tag: m.Tag, slot: m.Slot}
	c.mu.Lock()
	if m.Epoch != c.epoch {
		c.mu.Unlock()
		return
	}
	ps := c.pairs[key]
	if ps == nil {
		ps = &pairState{}
		c.pairs[key] = ps
	}
	if m.Psend {
		ps.sendCC, ps.sendSet = cc, true
		ps.parts = m.Parts
	} else {
		ps.recvCC, ps.recvSet = cc, true
	}
	paired := ps.sendSet && ps.recvSet
	sendCC, recvCC, parts := ps.sendCC, ps.recvCC, ps.parts
	c.mu.Unlock()
	if !paired {
		return
	}
	note := &ctlMsg{Src: m.Src, Dst: m.Dst, Tag: m.Tag, Slot: m.Slot, Parts: parts, Epoch: m.Epoch}
	sendCC.send(tfPaired, note)
	if recvCC != sendCC {
		recvCC.send(tfPaired, note)
	}
}

// publishAbort records the world's abort (first cause wins) and broadcasts
// it to every control connection so remote processes unwind too.
func (c *tcpCoord) publishAbort(rank int, msg string) {
	c.mu.Lock()
	if !c.abortSet {
		c.abortSet, c.abortRank, c.abortMsg = true, rank, msg
	}
	rank, msg = c.abortRank, c.abortMsg
	ep := c.epoch
	conns := make([]*ctlConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range conns {
		cc.send(tfAborted, &ctlMsg{Rank: rank, Msg: msg, Epoch: ep})
	}
}

// publishedAbort reads the currently published abort, if any.
func (c *tcpCoord) publishedAbort() (rank int, msg string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abortRank, c.abortMsg, c.abortSet
}

// bumpEpoch starts a new epoch: dead ranks' incarnations bump and their
// addresses are forgotten (lookups for them park until the respawned
// process says HELLO), the abort/collective/pairing state of the dead
// epoch is discarded, and the restore step is pinned for the new one.
func (c *tcpCoord) bumpEpoch(dead []int, restoreStep int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.restore = restoreStep
	for _, r := range dead {
		c.incs[r]++
		delete(c.addrs, r)
		delete(c.byRank, r)
	}
	c.abortSet, c.abortRank, c.abortMsg = false, 0, ""
	c.parked = map[int]bool{}
	c.colls = map[collKey]*collState{}
	c.pairs = map[pairKey]*pairState{}
	c.waiters = map[int][]*ctlConn{}
	return c.epoch
}

// awaitParked polls until every rank in want parked or the deadline
// passes, reporting the ranks still missing (nil on success).
func (c *tcpCoord) awaitParked(want []int, deadline time.Time) (missing []int) {
	for {
		missing = missing[:0]
		c.mu.Lock()
		for _, r := range want {
			if !c.parked[r] {
				missing = append(missing, r)
			}
		}
		c.mu.Unlock()
		if len(missing) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return missing
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// broadcastVerdict sends the recovery-round verdict to every control
// connection; parked workers act on it, everyone else ignores it.
func (c *tcpCoord) broadcastVerdict(resume bool, restoreStep int, epoch uint64) {
	c.mu.Lock()
	conns := make([]*ctlConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range conns {
		cc.send(tfVerdict, &ctlMsg{Resume: resume, Restore: restoreStep, Epoch: epoch})
	}
}

// giveUp ends a recovery round without respawning: the abort stays
// published so waking workers report the original cause.
func (c *tcpCoord) giveUp() {
	c.mu.Lock()
	c.parked = map[int]bool{}
	c.mu.Unlock()
	c.broadcastVerdict(false, -1, 0)
}

// progressSum returns the sum of the progress the workers reported,
// excluding rank `excl` (-1 for none).
func (c *tcpCoord) progressSum(excl int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for r, p := range c.progress {
		if r != excl {
			sum += p
		}
	}
	return sum
}

func (c *tcpCoord) incOf(rank int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incs[rank]
}

func (c *tcpCoord) restoreStep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.restore
}

func (c *tcpCoord) close() {
	c.ln.Close()
	c.mu.Lock()
	conns := make([]*ctlConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range conns {
		cc.close()
	}
	c.wg.Wait()
}
