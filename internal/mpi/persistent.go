package mpi

import (
	"fmt"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
)

// Persistent requests (SendInit/RecvInit + Start/Wait) implement the
// MPI_Send_init/MPI_Recv_init pattern: the two endpoints of a repeating
// transfer are matched ONCE, at plan-build time, into a pre-wired
// rank-to-rank channel. Every subsequent Start/Wait cycle reuses that
// channel: no inbox tag matching, no envelope or request allocation, no
// receive-buffer allocation — the per-step path performs exactly one copy
// (sender buffer → receiver buffer) plus channel token handoffs.
//
// Matching rules: a SendInit on rank S with (dst=R, tag=t) pairs with the
// RecvInit on rank R with (src=S, tag=t). When several persistent endpoints
// share the same (src, dst, tag) triple — e.g. double-buffered exchangers
// that build one plan per buffer — they pair in registration order, so all
// ranks must build their plans in the same program order (the same rule MPI
// imposes on communicator construction). Wildcards (AnySource/AnyTag) are
// not supported for persistent endpoints.
//
// Persistent and one-shot traffic never cross-match: a persistent send is
// invisible to Irecv and vice versa, even with equal tags.
//
// This file holds the transport-agnostic entry points (Comm.SendInit,
// Request.Start/Pready/...) and the chan backend's pre-paired channel
// implementation (pchan), which is the protocol op behind every persistent
// request on that backend.

// endpointKey identifies one directed persistent channel.
type endpointKey struct {
	src, dst, tag int
}

// pchan is the pre-wired channel shared by a matched SendInit/RecvInit
// pair. One step of the protocol: both sides Start; whichever side starts
// second performs the copy (mirroring the one-shot deliver) and releases
// one completion token per side. Each side's Wait consumes its own token
// and returns the request to the inactive state. Because Start panics on
// an active request (Wait must intervene, as in MPI), each side's token
// channel holds at most one token, so the cap-1 channels never block and
// the steady-state path allocates nothing.
type pchan struct {
	key endpointKey
	reg *persistReg // owning registry, for Free

	mu         sync.Mutex
	sendBuf    []float64
	recvBuf    []float64
	sendActive bool             // send Started, not yet Waited
	recvActive bool             // recv Started, not yet Waited
	sendFired  bool             // send Started in the current cycle, cleared at delivery
	recvFired  bool             // recv Started in the current cycle, cleared at delivery
	sendStart  time.Time        // set at send Start when sender metrics enabled
	sendDone   chan struct{}    // cap 1: delivery token for the send side
	recvDone   chan struct{}    // cap 1: delivery token for the recv side
	sendComm   *Comm            // nil until the send side registered
	recvComm   *Comm            // nil until the recv side registered
	sendFreed  bool             // send side called Free
	recvFreed  bool             // recv side called Free
	flips      []fault.ByteFlip // injected corruption for the current cycle
	seq        uint64           // sender's flight sequence stamp for the current cycle

	// Partitioned state (MPI 4.x Psend_init/Pready/Parrived), nil/zero on
	// unpartitioned channels. bounds holds the P+1 element offsets of the P
	// send partitions (bounds[0] == 0, bounds[P] == len(sendBuf)); ready[i]
	// is set by the sender's Pready, arrived[i] when partition i's payload
	// has been copied into the receive buffer. A partitioned cycle completes
	// — tokens released, fired flags cleared — only when every partition has
	// been delivered.
	bounds   []int
	ready    []bool
	arrived  []bool
	nready   int
	narrived int
}

func newPchan(key endpointKey, reg *persistReg) *pchan {
	return &pchan{key: key, reg: reg,
		sendDone: make(chan struct{}, 1), recvDone: make(chan struct{}, 1)}
}

// persistReg is the chan backend's table of persistent endpoints: the
// pending maps hold not-yet-matched endpoints, and all holds every live
// pchan (matched or not) until both sides Free it — the watchdog scans it
// for in-flight transfers and leak tests count it. It is touched only at
// plan build/teardown time.
type persistReg struct {
	mu    sync.Mutex
	sends map[endpointKey][]*pchan
	recvs map[endpointKey][]*pchan
	all   []*pchan
}

func (pr *persistReg) init() {
	pr.sends = map[endpointKey][]*pchan{}
	pr.recvs = map[endpointKey][]*pchan{}
}

// dropLocked removes pc from the live list; pr.mu held.
func (pr *persistReg) dropLocked(pc *pchan) {
	for i, c := range pr.all {
		if c == pc {
			pr.all = append(pr.all[:i], pr.all[i+1:]...)
			return
		}
	}
}

// pop removes and returns the oldest pending endpoint for key, or nil.
func pop(m map[endpointKey][]*pchan, key endpointKey) *pchan {
	list := m[key]
	if len(list) == 0 {
		return nil
	}
	pc := list[0]
	if len(list) == 1 {
		delete(m, key)
	} else {
		m[key] = list[1:]
	}
	return pc
}

// remove deletes pc from a pending list (teardown of an unmatched endpoint).
func remove(m map[endpointKey][]*pchan, key endpointKey, pc *pchan) {
	list := m[key]
	for i, c := range list {
		if c == pc {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(m, key)
			} else {
				m[key] = list
			}
			return
		}
	}
}

// SendInit creates a persistent send endpoint: buf will be transmitted to
// rank dst with the given tag on every Start/Wait cycle. The endpoint is
// matched against the destination's RecvInit once, at creation time (or
// when the peer registers); per-step Start/Wait then bypass the matching
// engine entirely. The returned request is inactive until Start.
func (c *Comm) SendInit(dst, tag int, buf []float64) *Request {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: SendInit to invalid rank %d (size %d)", dst, c.world.size))
	}
	if tag < 0 {
		panic("mpi: send tag must be non-negative")
	}
	return c.world.tr.sendInit(c, dst, tag, buf)
}

// RecvInit creates a persistent receive endpoint: every Start/Wait cycle
// fills buf with the matched sender's data. src must be a concrete rank
// (no AnySource) and tag a concrete tag (no AnyTag).
func (c *Comm) RecvInit(src, tag int, buf []float64) *Request {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: RecvInit from invalid rank %d (size %d)", src, c.world.size))
	}
	if tag < 0 {
		panic("mpi: RecvInit tag must be a concrete non-negative tag")
	}
	return c.world.tr.recvInit(c, src, tag, buf)
}

func (t *chanTransport) sendInit(c *Comm, dst, tag int, buf []float64) *Request {
	key := endpointKey{src: c.rank, dst: dst, tag: tag}
	pr := &t.pers
	pr.mu.Lock()
	pc := pop(pr.recvs, key)
	if pc == nil {
		pc = newPchan(key, pr)
		pr.sends[key] = append(pr.sends[key], pc)
		pr.all = append(pr.all, pc)
	}
	pr.mu.Unlock()
	pc.mu.Lock()
	pc.sendBuf = buf
	pc.sendComm = c
	pc.checkSizesLocked()
	pc.mu.Unlock()
	return &Request{comm: c, op: pc, persistent: true, psend: true, peer: dst, tag: tag}
}

func (t *chanTransport) recvInit(c *Comm, src, tag int, buf []float64) *Request {
	key := endpointKey{src: src, dst: c.rank, tag: tag}
	pr := &t.pers
	pr.mu.Lock()
	pc := pop(pr.sends, key)
	if pc == nil {
		pc = newPchan(key, pr)
		pr.recvs[key] = append(pr.recvs[key], pc)
		pr.all = append(pr.all, pc)
	}
	pr.mu.Unlock()
	pc.mu.Lock()
	pc.recvBuf = buf
	pc.recvComm = c
	pc.checkSizesLocked()
	pc.mu.Unlock()
	return &Request{comm: c, op: pc, persistent: true, psend: false, peer: src, tag: tag}
}

// PsendInit creates a partitioned persistent send endpoint (the
// MPI_Psend_init pattern): buf is divided into len(bounds)-1 contiguous
// partitions at the given element offsets (bounds[0] must be 0, the offsets
// strictly increasing, and the last offset len(buf)). Matching follows the
// SendInit rules — the peer registers with RecvInit or PrecvInit — but the
// per-cycle protocol changes: Start activates the request WITHOUT making
// any data visible; each partition's payload moves only after the sender
// declares it ready with Pready, so the wire leg of a message can begin
// while the data of sibling partitions is still being computed. Both sides'
// Wait complete only once every partition has been delivered.
func (c *Comm) PsendInit(dst, tag int, buf []float64, bounds []int) *Request {
	if len(bounds) < 2 {
		panic("mpi: PsendInit needs at least one partition (len(bounds) >= 2)")
	}
	if bounds[0] != 0 || bounds[len(bounds)-1] != len(buf) {
		panic(fmt.Sprintf("mpi: PsendInit bounds must span the buffer exactly (got [%d..%d] over %d elements)",
			bounds[0], bounds[len(bounds)-1], len(buf)))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("mpi: PsendInit bounds must be strictly increasing (bounds[%d]=%d, bounds[%d]=%d)",
				i-1, bounds[i-1], i, bounds[i]))
		}
	}
	r := c.SendInit(dst, tag, buf)
	r.op.(persOp).partition(r, bounds)
	return r
}

// PrecvInit creates the partition-aware persistent receive endpoint paired
// with a PsendInit. The receive side adopts the sender's partitioning
// (matched once, at plan time): Parrived reports per-partition arrival as
// the sender's Pready calls land, and Wait blocks until every partition has
// been delivered. It is otherwise identical to RecvInit — a plain RecvInit
// paired with a PsendInit behaves the same, this name documents the intent.
func (c *Comm) PrecvInit(src, tag int, buf []float64) *Request {
	return c.RecvInit(src, tag, buf)
}

// checkSizesLocked validates buffer compatibility as soon as both sides are
// known — plan-build time, not first-transfer time.
func (pc *pchan) checkSizesLocked() {
	if pc.sendBuf != nil && pc.recvBuf != nil && len(pc.sendBuf) > len(pc.recvBuf) {
		panic(fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
			pc.key.src, pc.key.dst, pc.key.tag, len(pc.sendBuf), len(pc.recvBuf)))
	}
	if n := len(pc.bounds); n > 0 && pc.sendBuf != nil && pc.bounds[n-1] != len(pc.sendBuf) {
		panic(fmt.Sprintf("mpi: partitioned send (src %d dst %d tag %d) bounds cover %d elements but the buffer holds %d",
			pc.key.src, pc.key.dst, pc.key.tag, pc.bounds[n-1], len(pc.sendBuf)))
	}
}

// deliverLocked runs on whichever side started second in a cycle: copy,
// clear the cycle's fired flags, and release one completion token per
// side. Called with pc.mu held. The token channels are cap 1 and provably
// never full here: a side's previous token must have been consumed by its
// Wait before its Start (enforced by the active-flag panic) could arm this
// delivery. The returned error is non-nil only when receive-side CRC
// verification is on and the (possibly corrupted) receive buffer differs
// from the send buffer; the caller must release pc.mu before acting on it,
// since aborting with the lock held would hang peers blocked on pc.mu.
func (pc *pchan) deliverLocked() error {
	if pc.sendBuf == nil || pc.recvBuf == nil {
		panic(fmt.Sprintf("mpi: persistent channel (src %d dst %d tag %d) started before both endpoints initialized",
			pc.key.src, pc.key.dst, pc.key.tag))
	}
	copy(pc.recvBuf, pc.sendBuf)
	return pc.completeCycleLocked()
}

// completeCycleLocked finishes one transfer cycle once the receive buffer
// holds the full payload: apply injected corruption, verify CRCs, account
// send latency, clear the cycle's fired flags, and release one completion
// token per side. Shared by the unpartitioned delivery and the partitioned
// path (which reaches here only after the last partition arrived).
func (pc *pchan) completeCycleLocked() error {
	if pc.flips != nil {
		applyFlips(pc.recvBuf[:len(pc.sendBuf)], pc.flips)
		pc.flips = nil
	}
	var err error
	if pc.sendComm.world.verifyCRC && crcFloats(pc.sendBuf) != crcFloats(pc.recvBuf[:len(pc.sendBuf)]) {
		err = &CorruptionError{Src: pc.key.src, Dst: pc.key.dst, Tag: pc.key.tag}
	}
	if m := pc.sendComm.m; m != nil && !pc.sendStart.IsZero() {
		m.sendSeconds.Observe(time.Since(pc.sendStart).Seconds())
	}
	pc.recvComm.fl.Deliver(int32(pc.key.src), int32(pc.key.tag), -1, int64(8*len(pc.sendBuf)), pc.seq)
	pc.sendFired, pc.recvFired = false, false
	pc.sendDone <- struct{}{}
	pc.recvDone <- struct{}{}
	return err
}

// deliverPartLocked copies one ready partition into the receive buffer and,
// when it was the last outstanding one, completes the cycle. Requires both
// sides fired, partition i ready and not yet arrived; pc.mu held.
func (pc *pchan) deliverPartLocked(i int) error {
	if pc.sendBuf == nil || pc.recvBuf == nil {
		panic(fmt.Sprintf("mpi: partitioned channel (src %d dst %d tag %d) started before both endpoints initialized",
			pc.key.src, pc.key.dst, pc.key.tag))
	}
	lo, hi := pc.bounds[i], pc.bounds[i+1]
	copy(pc.recvBuf[lo:hi], pc.sendBuf[lo:hi])
	pc.recvComm.fl.Record(flight.KindParrived, int32(pc.key.src), int32(pc.key.tag), int32(i), int64(8*(hi-lo)), pc.seq)
	pc.arrived[i] = true
	pc.narrived++
	if pc.narrived == len(pc.arrived) {
		return pc.completeCycleLocked()
	}
	return nil
}

// deliverReadyLocked delivers every partition the sender has already marked
// ready (the receive side just started this cycle); pc.mu held.
func (pc *pchan) deliverReadyLocked() error {
	for i := range pc.ready {
		if pc.ready[i] && !pc.arrived[i] {
			if err := pc.deliverPartLocked(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Start activates a persistent request for one transfer. The request must
// be inactive: starting again before Wait panics (as in MPI). Data becomes
// visible in the receive buffer only after the receiver's Wait returns.
func (r *Request) Start() {
	op, ok := r.op.(persOp)
	if !ok {
		panic("mpi: Start on a non-persistent request")
	}
	c := r.comm
	if r.psend {
		n := op.elems(r)
		if f := c.world.fault; f != nil {
			if d := f.SendDelay(c.rank); d > 0 {
				time.Sleep(d)
			}
			f.ProcessFault(c.rank)
		}
		c.sentMsgs.Add(1)
		c.sentBytes.Add(int64(8 * n))
		if m := c.m; m != nil {
			m.sendBytes.Observe(float64(8 * n))
		}
		seq := c.fl.Send(int32(r.peer), int32(r.tag), -1, int64(8*n))
		var flips []fault.ByteFlip
		if f := c.world.fault; f != nil {
			flips = f.CorruptSend(c.rank, n)
		}
		op.start(r, seq, flips)
		return
	}
	n := op.elems(r)
	c.fl.RecvPost(int32(r.peer), int32(r.tag), int64(8*n))
	op.start(r, 0, nil)
}

// Pready declares partition i of an active partitioned send ready for
// transfer (MPI_Pready): its payload may move to the receiver immediately —
// while sibling partitions are still being computed — and the sender must
// not touch the partition's span again until Wait returns. Panics on a
// non-partitioned request, before Start, or if the partition was already
// marked ready this cycle. Safe to call concurrently from different
// goroutines (worker tiles) on different partitions.
func (r *Request) Pready(i int) { r.PreadyRange(i, i+1) }

// PreadyRange marks partitions [lo, hi) ready (MPI_Pready_range).
func (r *Request) PreadyRange(lo, hi int) {
	op, ok := r.op.(persOp)
	if !ok || !r.psend {
		panic("mpi: Pready on a non-persistent or receive request")
	}
	op.preadyRange(r, lo, hi)
}

// PreadyAll marks every partition of the active cycle ready at once — the
// prologue form for data that is already fully computed.
func (r *Request) PreadyAll() {
	if op, ok := r.op.(persOp); ok && r.psend {
		if p := op.partitions(r); p > 0 {
			r.PreadyRange(0, p)
			return
		}
	}
	panic("mpi: PreadyAll on a non-partitioned request")
}

// Parrived reports whether partition i of the current receive cycle has
// been delivered (MPI_Parrived). It is a non-blocking poll: callers may
// consume the partition's span of the receive buffer as soon as it returns
// true, but the request still requires Wait to finish the cycle. Panics on
// a send request or when no partitioned sender has matched.
func (r *Request) Parrived(i int) bool {
	op, ok := r.op.(persOp)
	if !ok || r.psend {
		panic("mpi: Parrived on a non-persistent or send request")
	}
	return op.parrived(r, i)
}

// Partitions returns the partition count of the matched channel (0 for an
// unpartitioned persistent request).
func (r *Request) Partitions() int {
	op, ok := r.op.(persOp)
	if !ok {
		return 0
	}
	return op.partitions(r)
}

// Startall starts every request in the slice (MPI_Startall). Nil entries
// are skipped.
func Startall(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Start()
		}
	}
}

// Rebind swaps the buffer behind an inactive persistent request, keeping
// the matched channel and its (src, dst, tag) identity. The peer is
// unaffected — the wire format is the flat []float64 payload either way —
// which is what lets a degraded exchanger substitute a copy-window buffer
// for a mapped view mid-run without renegotiating the plan. Panics on a
// non-persistent request, on an active (Started, un-Waited) request, or if
// the new buffer breaks send/recv size compatibility.
func (r *Request) Rebind(buf []float64) {
	op, ok := r.op.(persOp)
	if !ok {
		panic("mpi: Rebind on a non-persistent request")
	}
	op.rebind(r, buf)
}

// Free tears down a persistent endpoint. An endpoint whose peer never
// registered is removed from the pending table — so a later plan may reuse
// its (src, dst, tag) triple without cross-matching stale state — and from
// the live list immediately. A matched endpoint stays live until the OTHER
// side frees too (the peer still holds the shared channel), at which point
// the channel leaves the live list; this is what keeps
// World.PersistentPending honest for leak tests.
//
// Free retracts any Start of this side that has not yet been delivered and
// drops the buffer reference. In a fault-free run that is a no-op (Wait
// precedes teardown, and Wait only returns after delivery), but a rank
// unwinding from an abort Frees endpoints whose cycle never completed —
// and may munmap the backing arena (MemMap storage) immediately after.
// Without the retraction a surviving peer that Starts next would observe
// the stale fired flag and copy from/into the unmapped pages, a fatal
// SIGSEGV no recover can catch. After the retraction the peer sees no
// pending delivery, blocks in Wait, and leaves through the abort channel.
// The channel lock serializes Free against a delivery already copying, so
// the unmap cannot land mid-copy either. Calling Free twice on the same
// request is a no-op.
func (r *Request) Free() {
	if op, ok := r.op.(persOp); ok {
		op.free(r)
	}
}

// pchan as the chan backend's persOp.

func (pc *pchan) elems(r *Request) int {
	if r.psend {
		return len(pc.sendBuf)
	}
	return len(pc.recvBuf)
}

func (pc *pchan) partition(r *Request, bounds []int) {
	p := len(bounds) - 1
	pc.mu.Lock()
	pc.bounds = append([]int(nil), bounds...)
	pc.ready = make([]bool, p)
	pc.arrived = make([]bool, p)
	pc.mu.Unlock()
}

func (pc *pchan) start(r *Request, seq uint64, flips []fault.ByteFlip) {
	c := r.comm
	if r.psend {
		pc.mu.Lock()
		if pc.sendActive {
			pc.mu.Unlock()
			panic("mpi: persistent send started twice without Wait")
		}
		pc.sendActive, pc.sendFired = true, true
		pc.seq = seq
		pc.flips = flips
		if c.m != nil {
			pc.sendStart = time.Now()
		}
		var err error
		if pc.bounds != nil {
			// Partitioned: activation makes nothing visible — each partition
			// moves only after its Pready. Reset this cycle's readiness.
			for i := range pc.ready {
				pc.ready[i] = false
			}
			pc.nready = 0
		} else if pc.recvFired {
			err = pc.deliverLocked()
		}
		pc.mu.Unlock()
		if err != nil {
			c.world.abort(c.rank, err)
			panic(c.world.Aborted())
		}
		return
	}
	pc.mu.Lock()
	if pc.recvActive {
		pc.mu.Unlock()
		panic("mpi: persistent receive started twice without Wait")
	}
	pc.recvActive, pc.recvFired = true, true
	var err error
	if pc.bounds != nil {
		// Partitioned: reset arrival state for this cycle, then drain any
		// partitions the sender already marked ready.
		for i := range pc.arrived {
			pc.arrived[i] = false
		}
		pc.narrived = 0
		if pc.sendFired {
			err = pc.deliverReadyLocked()
		}
	} else if pc.sendFired {
		err = pc.deliverLocked()
	}
	pc.mu.Unlock()
	if err != nil {
		c.world.abort(c.rank, err)
		panic(c.world.Aborted())
	}
}

func (pc *pchan) preadyRange(r *Request, lo, hi int) {
	c := r.comm
	pc.mu.Lock()
	if pc.bounds == nil {
		pc.mu.Unlock()
		panic("mpi: Pready on an unpartitioned persistent send")
	}
	if !pc.sendActive {
		pc.mu.Unlock()
		panic("mpi: Pready before Start")
	}
	if lo < 0 || hi > len(pc.ready) || lo >= hi {
		pc.mu.Unlock()
		panic(fmt.Sprintf("mpi: Pready range [%d,%d) out of bounds for %d partitions", lo, hi, len(pc.ready)))
	}
	var err error
	for i := lo; i < hi; i++ {
		if pc.ready[i] {
			pc.mu.Unlock()
			panic(fmt.Sprintf("mpi: partition %d marked ready twice in one cycle", i))
		}
		pc.ready[i] = true
		pc.nready++
		c.fl.Record(flight.KindPready, int32(pc.key.dst), int32(pc.key.tag), int32(i),
			int64(8*(pc.bounds[i+1]-pc.bounds[i])), pc.seq)
		if pc.recvFired && !pc.arrived[i] {
			if err = pc.deliverPartLocked(i); err != nil {
				break
			}
		}
	}
	pc.mu.Unlock()
	// Partitions advancing is progress: without this tick a long compute
	// phase with an armed pipeline would read as a stall to the watchdog.
	c.world.progressTick()
	if err != nil {
		c.world.abort(c.rank, err)
		panic(c.world.Aborted())
	}
}

func (pc *pchan) parrived(r *Request, i int) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.bounds == nil {
		panic("mpi: Parrived with no partitioned sender matched")
	}
	if i < 0 || i >= len(pc.arrived) {
		panic(fmt.Sprintf("mpi: Parrived partition %d out of range (%d partitions)", i, len(pc.arrived)))
	}
	return pc.arrived[i]
}

func (pc *pchan) partitions(*Request) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.bounds == nil {
		return 0
	}
	return len(pc.bounds) - 1
}

// token returns the given side's completion-token channel.
func (pc *pchan) token(psend bool) chan struct{} {
	if psend {
		return pc.sendDone
	}
	return pc.recvDone
}

// block consumes this side's completion token: the fast path — token
// already released — is a single non-blocking channel read.
func (pc *pchan) block(r *Request) {
	tok := pc.token(r.psend)
	select {
	case <-tok:
		return
	default:
	}
	select {
	case <-tok:
	case <-r.comm.world.abortCh:
		panic(r.comm.world.Aborted())
	}
}

func (pc *pchan) blockTimeout(r *Request, d time.Duration) error {
	tok := pc.token(r.psend)
	select {
	case <-tok:
		return nil
	default:
	}
	w := r.comm.world
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-tok:
		return nil
	case <-w.abortCh:
		return w.Aborted()
	case <-t.C:
		return &TimeoutError{After: d, Op: pc.opName(r)}
	}
}

// finish runs after this side's token was consumed: deactivate, tick
// progress, and on the receive side account the delivered payload.
func (pc *pchan) finish(r *Request) int {
	c := r.comm
	c.world.progressTick()
	if r.psend {
		pc.mu.Lock()
		pc.sendActive = false
		pc.mu.Unlock()
		return 0
	}
	pc.mu.Lock()
	pc.recvActive = false
	n := len(pc.sendBuf)
	pc.mu.Unlock()
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(8 * n))
	if m := c.m; m != nil {
		m.recvBytes.Observe(float64(8 * n))
	}
	return n
}

func (pc *pchan) opName(r *Request) string {
	if r.psend {
		return fmt.Sprintf("wait psend dst=%d tag=%d", pc.key.dst, pc.key.tag)
	}
	return fmt.Sprintf("wait precv src=%d tag=%d", pc.key.src, pc.key.tag)
}

func (pc *pchan) rebind(r *Request, buf []float64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if r.psend {
		if pc.sendActive {
			panic("mpi: Rebind on an active persistent send")
		}
		pc.sendBuf = buf
	} else {
		if pc.recvActive {
			panic("mpi: Rebind on an active persistent receive")
		}
		pc.recvBuf = buf
	}
	pc.checkSizesLocked()
}

func (pc *pchan) free(r *Request) {
	pr := pc.reg
	pr.mu.Lock()
	pc.mu.Lock()
	var matched, freed bool
	if r.psend {
		freed = pc.sendFreed
		pc.sendFreed = true
		matched = pc.recvComm != nil
		pc.sendFired = false
		pc.sendBuf = nil
	} else {
		freed = pc.recvFreed
		pc.recvFreed = true
		matched = pc.sendComm != nil
		pc.recvFired = false
		pc.recvBuf = nil
	}
	gone := !freed && (!matched || (pc.sendFreed && pc.recvFreed))
	pc.mu.Unlock()
	if !matched && !freed {
		if r.psend {
			remove(pr.sends, pc.key, pc)
		} else {
			remove(pr.recvs, pc.key, pc)
		}
	}
	if gone {
		pr.dropLocked(pc)
	}
	pr.mu.Unlock()
}

// PersistentPending reports the persistent-endpoint population: unmatched
// counts endpoints whose peer never registered (each is a latent deadlock —
// the watchdog reports them as psend-unpaired/precv-unpaired), and live
// counts channels not yet freed by both sides. After every exchanger on
// every rank is closed, both should be zero; leak tests assert exactly
// that.
func (w *World) PersistentPending() (unmatched, live int) {
	return w.tr.persistentPending()
}
