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

// chanTransport carries the one-shot matching and rendezvous state, and
// the recovery round's cell in memory: parked marks, the verdict, and a
// channel closed when the generation moves.
type chanTransport struct {
	w     *World
	boxes []*inbox

	cellMu sync.Mutex
	marks  []bool
	v      verdict
	moved  chan struct{}
}

func newChanTransport(w *World) *chanTransport {
	t := &chanTransport{w: w, boxes: make([]*inbox, w.size), marks: make([]bool, w.size), moved: make(chan struct{})}
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
		applyFlips(p.buf, 0, len(env.data), env.flips)
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
func (t *chanTransport) abortAll(*AbortError) {}

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

// newEpoch wipes the inboxes: a mid-exchange abort strands envelopes and
// posted receives. Persistent channels need nothing: the epoch re-pairs
// from scratch and builds new ones.
func (t *chanTransport) newEpoch(uint64) {
	for _, box := range t.boxes {
		box.mu.Lock()
		box.sends, box.recvs = nil, nil
		box.mu.Unlock()
	}
}

func (t *chanTransport) park(rank int) {
	t.cellMu.Lock()
	t.marks[rank] = true
	t.cellMu.Unlock()
}

func (t *chanTransport) parked() (out []int) {
	t.cellMu.Lock()
	defer t.cellMu.Unlock()
	for r, m := range t.marks {
		if m {
			out = append(out, r)
		}
	}
	return out
}

func (t *chanTransport) await(_ int, gen uint64) (verdict, bool) {
	for {
		t.cellMu.Lock()
		v, moved := t.v, t.moved
		t.cellMu.Unlock()
		if v.gen > gen {
			return v, true
		}
		<-moved
	}
}

func (t *chanTransport) settle(resume bool, _ []int, step int) verdict {
	t.cellMu.Lock()
	defer t.cellMu.Unlock()
	clear(t.marks)
	return verdict{gen: t.v.gen + 1, resume: resume, step: step}
}

func (t *chanTransport) release(v verdict) {
	t.cellMu.Lock()
	t.v = v
	close(t.moved)
	t.moved = make(chan struct{})
	t.cellMu.Unlock()
}

// incarnation is always 0: no rank of an in-process world dies alone.
func (t *chanTransport) incarnation(int) uint64 { return 0 }

func (t *chanTransport) publishedAbort() *AbortError { return t.w.Aborted() }

func (t *chanTransport) close() error { return nil }

// ---- persistent channels ----

// chanLink is the data path of one persistent channel, shared by both of
// its endpoints along with its lock: whichever side registers first builds
// it, the other joins it at its match. A span moves on whichever side fires
// second — a Pready or an unpartitioned Start finding the receive cycle
// open, or a receive Start finding spans its open send cycle already put —
// straight from the send buffer into the receive buffer, mirroring the
// one-shot deliver. A send cycle is therefore complete only once its
// receiver has it.
type chanLink struct {
	mu         sync.Mutex
	send, recv *cycle
}

func (t *chanTransport) newLink(e *cycle) link {
	l := &chanLink{}
	if q := e.r.pend.peer; q != nil {
		l = q.cycle().link.(*chanLink)
	}
	l.mu.Lock()
	if e.r.psend {
		l.send = e
	} else {
		l.recv = e
	}
	l.mu.Unlock()
	e.mu = &l.mu
	return l
}

// bind has nothing to do: the matched sides already share the link.
func (l *chanLink) bind(*cycle, *pend) {}

func (l *chanLink) put(_ *cycle, part int, _ *batch) {
	if rv := l.recv; rv != nil && rv.state.Load() == cycOpen {
		l.move(part)
	}
}

// poll moves, when the receive cycle opens, every span the open send cycle
// put before it: the whole payload, or each partition readied and not yet
// arrived.
func (l *chanLink) poll(e *cycle) bool {
	s := l.send
	if s == nil || s.state.Load() != cycOpen {
		return false
	}
	if s.parts == 0 {
		l.move(-1)
		return false
	}
	sk, rk := s.n, e.n
	for i := range s.marks {
		if s.marks[i] == sk && e.marks[i] != rk {
			l.move(i)
		}
	}
	return false
}

// move lands span part of the open send cycle in the open receive cycle.
func (l *chanLink) move(part int) {
	s := l.send
	lo, hi := s.span(part)
	l.recv.land(part, lo, s.buf[lo:hi], s.flips, s.seq)
	s.sent()
}
