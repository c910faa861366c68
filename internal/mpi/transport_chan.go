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

// chanTransport carries the matching and rendezvous state that used to
// live on World.
type chanTransport struct {
	w     *World
	boxes []*inbox
	pers  persistReg
}

func newChanTransport(w *World) *chanTransport {
	t := &chanTransport{w: w, boxes: make([]*inbox, w.size)}
	for i := range t.boxes {
		t.boxes[i] = newInbox()
	}
	t.pers.init()
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
	pr := &t.pers
	pr.mu.Lock()
	for _, pc := range pr.all {
		pc.mu.Lock()
		if pc.sendFired || pc.recvFired {
			n++
		}
		pc.mu.Unlock()
	}
	pr.mu.Unlock()
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
				Kind: "send-unmatched", Src: env.src, Dst: dst, Tag: env.tag,
				Bytes: int64(8 * len(env.data)),
			})
		}
		for _, p := range box.recvs {
			pending = append(pending, PendingOp{
				Kind: "recv-posted", Src: p.src, Dst: dst, Tag: p.tag,
				Bytes: int64(8 * len(p.buf)),
			})
		}
		box.mu.Unlock()
	}
	pr := &t.pers
	pr.mu.Lock()
	unpaired := map[*pchan]bool{}
	addUnpaired := func(m map[endpointKey][]*pchan, kind string) {
		for key, list := range m {
			for _, pc := range list {
				unpaired[pc] = true
				pc.mu.Lock()
				buf := pc.sendBuf
				if buf == nil {
					buf = pc.recvBuf
				}
				pc.mu.Unlock()
				pending = append(pending, PendingOp{
					Kind: kind, Src: key.src, Dst: key.dst, Tag: key.tag,
					Bytes: int64(8 * len(buf)), Persistent: true,
				})
			}
		}
	}
	addUnpaired(pr.sends, "psend-unpaired")
	addUnpaired(pr.recvs, "precv-unpaired")
	for _, pc := range pr.all {
		if unpaired[pc] {
			continue
		}
		pc.mu.Lock()
		if pc.sendFired {
			op := PendingOp{
				Kind: "psend-active", Src: pc.key.src, Dst: pc.key.dst, Tag: pc.key.tag,
				Bytes: int64(8 * len(pc.sendBuf)), Persistent: true,
			}
			if pc.bounds != nil {
				op.Partitions, op.Ready = len(pc.ready), pc.nready
				if pc.nready < len(pc.ready) {
					// A parked partition: the send is active but some
					// producing tiles never declared their spans ready.
					op.Kind = "psend-partial"
					for i, rdy := range pc.ready {
						if !rdy {
							op.Unready = append(op.Unready, i)
						}
					}
				}
			}
			pending = append(pending, op)
		}
		if pc.recvFired {
			pending = append(pending, PendingOp{
				Kind: "precv-active", Src: pc.key.src, Dst: pc.key.dst, Tag: pc.key.tag,
				Bytes: int64(8 * len(pc.recvBuf)), Persistent: true,
			})
		}
		pc.mu.Unlock()
	}
	pr.mu.Unlock()
	return pending
}

func (t *chanTransport) persistentPending() (unmatched, live int) {
	pr := &t.pers
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, list := range pr.sends {
		unmatched += len(list)
	}
	for _, list := range pr.recvs {
		unmatched += len(list)
	}
	return unmatched, len(pr.all)
}

// reset wipes all transport state for a Respawn: unmatched inbox traffic
// (a mid-exchange abort strands envelopes and posted receives), the entire
// persistent-endpoint registry (a rank that died mid-plan-build leaks
// half-paired endpoints; survivors' endpoints are stale because the new
// epoch re-pairs from scratch — FIFO pairing order only holds if everyone
// starts empty).
func (t *chanTransport) reset() error {
	for _, box := range t.boxes {
		box.mu.Lock()
		box.sends, box.recvs = nil, nil
		box.mu.Unlock()
	}
	pr := &t.pers
	pr.mu.Lock()
	pr.sends = map[endpointKey][]*pchan{}
	pr.recvs = map[endpointKey][]*pchan{}
	pr.all = nil
	pr.mu.Unlock()
	return nil
}

func (t *chanTransport) close() error { return nil }
