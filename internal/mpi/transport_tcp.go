package mpi

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
// small control server — rendezvous handshake, address lookup, abort
// broadcast, recovery-round verdicts — and
// every rank runs a node holding the data path: a listener plus one framed
// stream per peer it talks to, carrying one-shot (collectives included)
// and persistent traffic directly rank-to-rank. In-process
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
	tfAbort    = 7  // node → coord: my world aborted (rank, rendered cause)
	tfAborted  = 8  // coord → node: the world is aborted (rank, rendered cause)
	tfPark     = 9  // node → coord: parked at the recovery barrier
	tfVerdict  = 10 // coord → node: recovery verdict (resume/give-up, epoch, step)
	tfHB       = 11 // worker → coord: control heartbeat + local progress
	tfHBAck    = 12 // coord → worker: sum of the other ranks' progress

	tfJoin   = 20 // data dial handshake: who I am, which epoch/incarnation
	tfJoinOK = 21 // data accept: welcome
	tfJoinNo = 22 // data reject: stale epoch/incarnation or wrong world
	tfData   = 23 // one-shot message
	tfPData  = 24 // persistent cycle payload
	tfHBData = 26 // data-connection heartbeat: the stream's last wire sequence (u64); 25 is retired
)

// ctlMsg is the single JSON envelope of every control frame; which fields
// are meaningful depends on the frame kind.
type ctlMsg struct {
	Rank     int      `json:"rank"`
	Peer     int      `json:"peer"`
	Addr     string   `json:"addr"`
	Size     int      `json:"size"`
	WorldID  uint64   `json:"world"`
	Epoch    uint64   `json:"epoch"`
	Inc      uint64   `json:"inc"`
	Restore  int      `json:"restore"`
	Incs     []uint64 `json:"incs"`
	Msg      string   `json:"msg"`
	Resume   bool     `json:"resume"`
	Progress int64    `json:"progress"`
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
	// fr reads the stream's frames for its whole life, handshake included;
	// only its one reading goroutine touches it.
	fr tcpconn.FrameReader
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
	// othersProgress is the other processes' share: on a worker, what the
	// coordinator's last heartbeat ack reported; on the coordinator, the
	// running sum of what the workers reported.
	localProgress, othersProgress atomic.Int64
}

func newTCPWorldTransport(w *World) (Transport, error) {
	t := &tcpTransport{w: w, nodes: map[int]*tcpNode{}}
	t.worldID = uint64(os.Getpid())<<20 | (tcpWorldSeq.Add(1) & (1<<20 - 1))
	coord, err := newTCPCoord(w, t.worldID, w.size, &t.othersProgress)
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
	w := &World{size: size, abortCh: make(chan struct{}), solo: true}
	t := &tcpTransport{w: w, worldID: worldID, coordAddr: parts[0], nodes: map[int]*tcpNode{}}
	w.setTransport("tcp", t)
	if err := t.attachRank(rank); err != nil {
		return nil, fmt.Errorf("mpi: attaching tcp world: %w", err)
	}
	n := t.node(rank)
	n.mu.Lock()
	w.epoch = verdict{gen: n.last.Epoch, step: n.last.Restore, incs: n.last.Incs}
	n.mu.Unlock()
	return w, nil
}

// WorkerSpawnEnv returns the environment entries a spawned worker needs to
// attach to this world: the coordinator's address of a tcp world, nil on
// other transports and in worker processes.
func (w *World) WorkerSpawnEnv() []string {
	if t, ok := w.tr.(*tcpTransport); ok && t.coord != nil {
		return []string{fmt.Sprintf("%s=%s|%d|%d", EnvTCPWorld, t.coordAddr, t.worldID, w.size)}
	}
	return nil
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

// send writes the message as a tfData frame, a batch of one; the send is
// complete once written. The receiving node's reader hands it to the
// receiver's matcher.
func (t *tcpTransport) send(c *Comm, dst int, a arrival) {
	n := t.node(c.rank)
	b := c.batch()
	b.tcp = append(b.tcp, tcpFrame{n: n, kind: tfData, data: a.data, flips: a.flips,
		h: tcpHdr{src: c.rank, dst: dst, tag: a.tag, epoch: n.epoch.Load(), inc: n.inc, fseq: a.seq}})
	b.flush()
	a.release()
}

// drain has nothing to hand over: readers hand frames over as they decode
// them.
func (t *tcpTransport) drain(int) bool { return false }

func (t *tcpTransport) peek() []PendingOp { return nil }

// retire has nothing to reuse: channel ids are never reused.
func (t *tcpTransport) retire(uint64, bool) {}

func (t *tcpTransport) newLink(e *cycle) link {
	return t.node(e.r.comm.rank).newLink(e)
}

func (t *tcpTransport) abortAll(ae *AbortError) {
	m := &ctlMsg{Rank: ae.Rank, Msg: ae.cause()}
	if t.coord != nil {
		t.coord.mu.Lock()
		m.Epoch = t.coord.epoch
		t.coord.mu.Unlock()
		t.coord.broadcast(tfAborted, m)
		return
	}
	// Worker: forward the abort to the coordinator (best-effort — if the
	// control link is down the coordinator's heartbeat loss or the
	// supervisor's reaping takes over). Local waiters watch w.abortCh.
	for _, n := range t.snapshotNodes() {
		m.Epoch = n.epoch.Load()
		n.ctl.send(tfAbort, m)
	}
}

// ---- the recovery round's cell: the coordinator's parked set, tfPark and
// tfVerdict frames. Ranks park and wait through their node's control link,
// in the coordinator's process too; settling and releasing is the
// coordinator's, whose epoch is the round generation. A node's wire state
// moves onto a resumed epoch once: in the coordinator's process as the
// round settles, in a worker as the verdict arrives. ----

func (t *tcpTransport) parked() (out []int) {
	if c := t.coord; c != nil {
		c.mu.Lock()
		for r := range c.parked {
			out = append(out, r)
		}
		c.mu.Unlock()
		slices.Sort(out)
	}
	return out
}

func (t *tcpTransport) await(rank int, gen uint64) (verdict, bool) {
	n := t.node(rank)
	n.ctl.send(tfPark, &ctlMsg{Rank: rank})
	for {
		n.mu.Lock()
		m := n.last
		n.mu.Unlock()
		if m.Epoch > gen {
			// The node's own epoch guards the move: settle already moved a
			// node of the coordinator's process, and resetting it again
			// would cut streams the new epoch has opened.
			if m.Resume && n.epoch.Load() < m.Epoch {
				n.resetForEpoch(m.Epoch)
			}
			return verdict{gen: m.Epoch, resume: m.Resume, step: m.Restore, incs: m.Incs}, true
		}
		select {
		case <-n.verdictCh:
		case <-n.ctlDown:
			return verdict{}, false
		}
	}
}

// settle bumps the epoch. On resume, dead ranks' incarnations bump and
// their addresses are forgotten (lookups for them park until the respawned
// process says HELLO), the restore step is pinned, and this process's nodes
// move onto the new epoch. The epoch bumps before the verdict goes out and
// before any dead rank respawns, so a respawned worker's WELCOME already
// carries the new epoch and stale frames of the old one never match.
func (t *tcpTransport) settle(resume bool, dead []int, step int) verdict {
	c := t.coord
	if c == nil {
		panic("mpi: a tcp world's recovery rounds are settled by its coordinator process")
	}
	c.mu.Lock()
	c.epoch++
	c.parked = map[int]bool{}
	if resume {
		c.restore = step
		for _, r := range dead {
			c.incs[r]++
			delete(c.addrs, r)
			delete(c.byRank, r)
		}
		c.waiters = map[int][]*ctlConn{}
	}
	v := verdict{gen: c.epoch, resume: resume, step: c.restore, incs: slices.Clone(c.incs)}
	c.mu.Unlock()
	if resume {
		for _, n := range t.snapshotNodes() {
			n.resetForEpoch(v.gen)
		}
	}
	return v
}

func (t *tcpTransport) release(v verdict) {
	t.coord.broadcast(tfVerdict, &ctlMsg{Resume: v.resume, Restore: v.step, Epoch: v.gen, Incs: v.incs})
}

// publishedAbort is the world's own: the coordinator adopts every live
// worker's abort, and a worker adopts the coordinator's broadcast.
func (t *tcpTransport) publishedAbort() *AbortError { return t.w.Aborted() }

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

// progress: workers learn the other processes' progress through control
// heartbeats; the coordinator sums what workers reported as it handles
// them.
func (t *tcpTransport) progress(add int64) int64 {
	return t.localProgress.Add(add) + t.othersProgress.Load()
}

// ---- coordinator ----

// tcpCoord is the control server: one per world, living in the process
// that built it. Every handler runs on the owning connection's serve
// goroutine, so frames from one node are processed in order.
type tcpCoord struct {
	w       *World
	worldID uint64
	size    int
	ln      net.Listener
	done    chan struct{}
	wg      sync.WaitGroup

	mu       sync.Mutex
	epoch    uint64 // the recovery round generation
	restore  int    // checkpoint step the current epoch restores from, -1 none
	incs     []uint64
	addrs    map[int]string
	byRank   map[int]*ctlConn
	waiters  map[int][]*ctlConn // conns waiting for a rank's address
	conns    map[*ctlConn]bool
	parked   map[int]bool
	progress []int64
	// reported is the transport's othersProgress: the sum of progress,
	// updated as heartbeats land so the per-completion tick reads it
	// without c.mu.
	reported *atomic.Int64
}

func newTCPCoord(w *World, worldID uint64, size int, reported *atomic.Int64) (*tcpCoord, error) {
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
		progress: make([]int64, size),
		reported: reported,
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
		cc := &ctlConn{c: conn, fr: tcpconn.FrameReader{R: conn}}
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
		kind, payload, err := cc.fr.Next()
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
			Incs: slices.Clone(c.incs), Restore: c.restore, WorldID: c.worldID}
		waiting := c.waiters[m.Rank]
		delete(c.waiters, m.Rank)
		c.mu.Unlock()
		cc.send(tfWelcome, welcome)
		for _, w := range waiting {
			w.send(tfLookupOK, &ctlMsg{Peer: m.Rank, Addr: m.Addr})
		}
		if ae := c.w.Aborted(); ae != nil {
			cc.send(tfAborted, &ctlMsg{Rank: ae.Rank, Msg: ae.cause(), Epoch: welcome.Epoch})
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
	case tfAbort:
		// Under the world's roundMu: a late abort of the old epoch can
		// neither race a recovery round's re-arm nor kill the new epoch.
		c.w.roundMu.Lock()
		c.mu.Lock()
		stale := m.Epoch != c.epoch
		c.mu.Unlock()
		if !stale {
			c.w.abort(m.Rank, &RemoteAbort{Msg: m.Msg})
		}
		c.w.roundMu.Unlock()
	case tfPark:
		c.mu.Lock()
		c.parked[m.Rank] = true
		c.mu.Unlock()
	case tfHB:
		c.mu.Lock()
		if m.Rank >= 0 && m.Rank < c.size && m.Progress > c.progress[m.Rank] {
			c.reported.Add(m.Progress - c.progress[m.Rank])
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
	}
}

// broadcast sends one control frame to every control connection.
func (c *tcpCoord) broadcast(kind byte, m *ctlMsg) {
	c.mu.Lock()
	conns := make([]*ctlConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range conns {
		cc.send(kind, m)
	}
}

func (c *tcpCoord) close() {
	c.ln.Close()
	c.mu.Lock()
	for cc := range c.conns {
		cc.close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}
