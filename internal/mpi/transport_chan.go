package mpi

import (
	"fmt"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
)

// The chan backend is the original in-process runtime: per-rank inboxes
// matched under a mutex for one-shot traffic and pre-paired channels for
// persistent plans. Every rank is a goroutine of the same process; delivery
// is rendezvous — the payload moves on whichever side matched second,
// directly into the posted receive buffer.

func init() {
	RegisterTransport("chan",
		"every rank a goroutine of this process; delivery over in-process channels",
		func(w *World) (Transport, error) {
			return newChanTransport(w), nil
		})
}

// chanTransport carries the one-shot matching and rendezvous state.
type chanTransport struct {
	w     *World
	boxes []*inbox
}

func newChanTransport(w *World) *chanTransport {
	t := &chanTransport{w: w, boxes: make([]*inbox, w.size)}
	for i := range t.boxes {
		t.boxes[i] = newInbox()
	}
	return t
}

func (t *chanTransport) name() string { return "chan" }

// envelope is a send sitting in a destination inbox awaiting a matching
// receive (or already matched, awaiting copy completion). It doubles as
// the send request's protocol op.
type envelope struct {
	src, tag int
	data     []float64
	done     chan struct{}
	post     time.Time        // when Isend posted; zero unless m != nil
	m        *commMetrics     // sender's metrics, nil when disabled
	flips    []fault.ByteFlip // injected in-flight corruption, nil normally
	seq      uint64           // sender's flight sequence stamp, 0 when unrecorded
}

// posted is a receive awaiting a matching send; it is also the receive
// request's protocol op.
type posted struct {
	src, tag int
	buf      []float64
	done     chan struct{}
	env      *envelope    // set at match time, before done is closed
	post     time.Time    // when Irecv posted; zero unless m != nil
	m        *commMetrics // receiver's metrics, nil when disabled
	fl       *flight.Ring // receiver's flight ring, nil when unrecorded
}

// inbox holds unmatched arrivals and unmatched posted receives for one rank.
type inbox struct {
	mu    sync.Mutex
	sends []*envelope
	recvs []*posted
}

func newInbox() *inbox { return &inbox{} }

// matches is the one-shot matching rule of every backend. AnyTag matches
// user tags only: a tag below AnyTag (collTag) is a separate context that
// only an exact receive takes.
func matches(wantSrc, wantTag, src, tag int) bool {
	return (wantSrc == AnySource || wantSrc == src) && (wantTag == tag || wantTag == AnyTag && tag > AnyTag)
}

func (t *chanTransport) isend(c *Comm, dst, tag int, buf []float64, flips []fault.ByteFlip, seq uint64) *Request {
	env := &envelope{src: c.rank, tag: tag, data: buf, done: make(chan struct{}), flips: flips, seq: seq}
	if c.m != nil {
		env.post, env.m = time.Now(), c.m
	}
	r := &Request{comm: c, op: env, peer: dst, tag: tag}
	box := t.boxes[dst]
	box.mu.Lock()
	for i, p := range box.recvs {
		if matches(p.src, p.tag, env.src, env.tag) {
			box.recvs = append(box.recvs[:i], box.recvs[i+1:]...)
			box.mu.Unlock()
			deliver(t.w, dst, env, p)
			return r
		}
	}
	box.sends = append(box.sends, env)
	box.mu.Unlock()
	return r
}

func (t *chanTransport) irecv(c *Comm, src, tag int, buf []float64) *Request {
	p := &posted{src: src, tag: tag, buf: buf, done: make(chan struct{}), fl: c.fl}
	if c.m != nil {
		p.post, p.m = time.Now(), c.m
	}
	r := &Request{comm: c, op: p, peer: src, tag: tag}
	box := t.boxes[c.rank]
	box.mu.Lock()
	for i, env := range box.sends {
		if matches(src, tag, env.src, env.tag) {
			box.sends = append(box.sends[:i], box.sends[i+1:]...)
			box.mu.Unlock()
			deliver(t.w, c.rank, env, p)
			return r
		}
	}
	box.recvs = append(box.recvs, p)
	box.mu.Unlock()
	return r
}

// deliver copies the payload and completes both sides. It runs on whichever
// goroutine closed the match second, mirroring how real MPI progress engines
// complete transfers on whichever process touches the channel last. dst is
// the receiving rank, for corruption attribution.
func deliver(w *World, dst int, env *envelope, p *posted) {
	overflow := len(env.data) > len(p.buf)
	if overflow {
		// Truncate like MPI_ERR_TRUNCATE, but complete both sides first so
		// peer ranks unblock, then abort the job via panic (propagated by
		// World.Run).
		env = &envelope{src: env.src, tag: env.tag, data: env.data[:len(p.buf)], done: env.done,
			post: env.post, m: env.m, flips: env.flips, seq: env.seq}
	}
	copy(p.buf, env.data)
	if env.flips != nil {
		applyFlips(p.buf[:len(env.data)], env.flips)
	}
	corrupt := w.verifyCRC && crcFloats(env.data) != crcFloats(p.buf[:len(env.data)])
	if env.m != nil {
		env.m.sendSeconds.Observe(time.Since(env.post).Seconds())
	}
	if p.m != nil {
		p.m.recvMatchWait.Observe(time.Since(p.post).Seconds())
		p.m.recvBytes.Observe(float64(8 * len(env.data)))
	}
	p.fl.Deliver(int32(env.src), int32(env.tag), -1, int64(8*len(env.data)), env.seq)
	p.env = env
	close(p.done)
	close(env.done)
	if overflow {
		panic(fmt.Sprintf("mpi: message overflows receive buffer (src %d tag %d)", env.src, env.tag))
	}
	if corrupt {
		// Complete both sides first so peers unblock, then kill the world:
		// a CRC mismatch means the data is wrong everywhere downstream.
		w.abort(dst, &CorruptionError{Src: env.src, Dst: dst, Tag: env.tag})
		panic(w.Aborted())
	}
}

// blockDone parks until done closes, or panics with the world's
// *AbortError if the world aborts first. The fast path — already complete —
// is a single non-blocking channel read.
func blockDone(r *Request, done <-chan struct{}) {
	select {
	case <-done:
		return
	default:
	}
	if r.comm == nil {
		<-done
		return
	}
	select {
	case <-done:
	case <-r.comm.world.abortCh:
		panic(r.comm.world.Aborted())
	}
}

// blockDoneTimeout is blockDone with a deadline (the WaitTimeout protocol).
func blockDoneTimeout(r *Request, done <-chan struct{}, d time.Duration) error {
	select {
	case <-done:
		return nil
	default:
	}
	var abortCh chan struct{} // nil: never ready in the select below
	var w *World
	if r.comm != nil {
		w = r.comm.world
		abortCh = w.abortCh
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-abortCh:
		return w.Aborted()
	case <-t.C:
		return &TimeoutError{After: d, Op: r.op.opName(r)}
	}
}

// reqOp for the one-shot send side.

func (e *envelope) block(r *Request) { blockDone(r, e.done) }

func (e *envelope) blockTimeout(r *Request, d time.Duration) error {
	return blockDoneTimeout(r, e.done, d)
}

func (e *envelope) finish(r *Request) int {
	if r.comm != nil {
		r.comm.world.progressTick()
	}
	return 0
}

func (e *envelope) opName(r *Request) string {
	return fmt.Sprintf("wait send dst=%d tag=%d", r.peer, r.tag)
}

// reqOp for the one-shot receive side.

func (p *posted) block(r *Request) { blockDone(r, p.done) }

func (p *posted) blockTimeout(r *Request, d time.Duration) error {
	return blockDoneTimeout(r, p.done, d)
}

func (p *posted) finish(r *Request) int {
	if r.comm != nil {
		r.comm.world.progressTick()
	}
	n := len(p.env.data)
	if r.comm != nil {
		r.comm.recvMsgs.Add(1)
		r.comm.recvBytes.Add(int64(8 * n))
	}
	return n
}

func (p *posted) opName(r *Request) string {
	return fmt.Sprintf("wait recv src=%s tag=%s", wildcard(r.peer), wildcard(r.tag))
}

// abortAll has nothing to carry: every rank is in this process, and its
// waits watch the world's abort channel.
func (t *chanTransport) abortAll() {}

// pendingCount is the cheap stall predicate: a count of operations that are
// posted but not complete.
func (t *chanTransport) pendingCount() int {
	n := 0
	for _, box := range t.boxes {
		box.mu.Lock()
		n += len(box.sends) + len(box.recvs)
		box.mu.Unlock()
	}
	return n
}

// pendingOps lists every pending operation for a StallReport (unsorted;
// the report sorts after merging in world-level entries).
func (t *chanTransport) pendingOps() []PendingOp {
	var pending []PendingOp
	for dst, box := range t.boxes {
		box.mu.Lock()
		for _, env := range box.sends {
			pending = append(pending, PendingOp{
				Kind: flight.PendSendUnmatched, Src: env.src, Dst: dst, Tag: env.tag,
				Bytes: int64(8 * len(env.data)),
			})
		}
		for _, p := range box.recvs {
			pending = append(pending, PendingOp{
				Kind: flight.PendRecvPosted, Src: p.src, Dst: dst, Tag: p.tag,
				Bytes: int64(8 * len(p.buf)),
			})
		}
		box.mu.Unlock()
	}
	return pending
}

// reset wipes the inboxes for a Respawn: a mid-exchange abort strands
// envelopes and posted receives. Persistent channels need nothing: the
// epoch re-pairs from scratch and builds new ones.
func (t *chanTransport) reset() error {
	for _, box := range t.boxes {
		box.mu.Lock()
		box.sends, box.recvs = nil, nil
		box.mu.Unlock()
	}
	return nil
}

func (t *chanTransport) close() error { return nil }

// ---- persistent channels ----

// pchan is the pre-wired channel of a chan persistent pair, shared by both
// sides' requests: whichever side registers first builds it, the matched
// side joins it. One step of the protocol: both sides Start; whichever side
// starts second performs the copy (mirroring the one-shot deliver) and
// releases one completion token per side. Each side's Wait consumes its own
// token and returns the request to the inactive state. Because Start panics
// on an active request (Wait must intervene, as in MPI), each side's token
// channel holds at most one token, so the cap-1 channels never block and
// the steady-state path allocates nothing.
type pchan struct {
	key endpointKey

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
	flips      []fault.ByteFlip // injected corruption for the current cycle
	seq        uint64           // sender's flight sequence stamp for the current cycle
	n          int              // elements delivered by the last completed cycle

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

// joinPchan returns the channel of p's matched peer when it registered
// first, or a new one.
func joinPchan(p *pend) *pchan {
	if p.peer != nil {
		return p.peer.r.op.(*pchan)
	}
	return &pchan{key: p.key, sendDone: make(chan struct{}, 1), recvDone: make(chan struct{}, 1)}
}

func (t *chanTransport) sendInit(c *Comm, p *pend, buf []float64) persOp {
	pc := joinPchan(p)
	pc.mu.Lock()
	pc.sendBuf, pc.sendComm = buf, c
	if p.bounds != nil {
		pc.bounds = p.bounds
		pc.ready = make([]bool, p.parts)
		pc.arrived = make([]bool, p.parts)
	}
	pc.mu.Unlock()
	return pc
}

func (t *chanTransport) recvInit(c *Comm, p *pend, buf []float64) persOp {
	pc := joinPchan(p)
	pc.mu.Lock()
	pc.recvBuf, pc.recvComm = buf, c
	pc.mu.Unlock()
	return pc
}

// bind has nothing to do: the matched sides already share the channel.
func (pc *pchan) bind(*Request, *pend) {}

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
	pc.n = len(pc.sendBuf)
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
	return pc.arrived[i]
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
	n := pc.n
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
}

// free retracts this side's undelivered Start and drops its buffer; the
// channel lock serializes it against a delivery already copying.
func (pc *pchan) free(r *Request) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if r.psend {
		pc.sendFired, pc.sendBuf = false, nil
	} else {
		pc.recvFired, pc.recvBuf = false, nil
	}
}

func (pc *pchan) pending(r *Request) (PendingOp, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if !r.psend {
		return PendingOp{Kind: flight.PendPrecvActive}, pc.recvFired
	}
	op := PendingOp{Kind: flight.PendPsendActive}
	if pc.bounds != nil {
		op.Partitions, op.Ready = len(pc.ready), pc.nready
		if pc.nready < len(pc.ready) {
			// A parked partition: the send is active but some producing
			// tiles never declared their spans ready.
			op.Kind = flight.PendPsendPartial
			for i, rdy := range pc.ready {
				if !rdy {
					op.Unready = append(op.Unready, i)
				}
			}
		}
	}
	return op, pc.sendFired
}
