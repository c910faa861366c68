package mpi

import "sync"

// The chan backend is the in-process runtime: every rank is a goroutine of
// the same process. Its mailbox hands a one-shot send straight to the
// receiver's matcher, and pre-paired channels carry persistent plans;
// delivery is rendezvous — the payload moves on whichever side matched
// second, directly into the posted receive buffer, and a send completes
// once a receive took it.

func init() {
	RegisterTransport("chan",
		"every rank a goroutine of this process; delivery over in-process channels",
		func(w *World) (Transport, error) {
			return &chanTransport{w: w, marks: make([]bool, w.size), moved: make(chan struct{})}, nil
		})
}

// chanTransport carries the recovery round's cell in memory: parked marks,
// the verdict, and a channel closed when the generation moves.
type chanTransport struct {
	w *World

	cellMu sync.Mutex
	marks  []bool
	v      verdict
	moved  chan struct{}
}

// send hands the message to the receiver's matcher, which releases it —
// completing the send — once a receive took it.
func (t *chanTransport) send(_ *Comm, dst int, a arrival) { t.w.arrive(dst, a) }

// drain has nothing to hand over: sends arrive as they are posted.
func (t *chanTransport) drain(int) bool { return false }

func (t *chanTransport) peek() []PendingOp { return nil }

// abortAll has nothing to carry: every rank is in this process, and its
// waits watch the world's abort channel.
func (t *chanTransport) abortAll(*AbortError) {}

// progress keeps no world-wide count: every rank is in this process, and
// its watchdog counts their ticks.
func (t *chanTransport) progress(int64) int64 { return 0 }

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

func (t *chanTransport) await(rank int, gen uint64) (verdict, bool) {
	t.cellMu.Lock()
	defer t.cellMu.Unlock()
	t.marks[rank] = true
	for t.v.gen <= gen {
		moved := t.moved
		t.cellMu.Unlock()
		<-moved
		t.cellMu.Lock()
	}
	return t.v, true
}

// settle's verdict carries no incarnations (all 0): no rank of an
// in-process world dies alone.
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

func (t *chanTransport) publishedAbort() *AbortError { return t.w.Aborted() }

func (t *chanTransport) close() error { return nil }

// ---- persistent channels ----

// chanLink is the data path of one persistent channel, shared by both of
// its endpoints along with its lock: whichever side registers first builds
// it, the other joins it at its match. The payload moves on whichever side
// starts second — a send Start finding the receive cycle open, or a receive
// Start finding its open send cycle already put — straight from the send
// buffer into the receive buffer, as a one-shot message moves. A send cycle
// is therefore complete only once its receiver has it. It is every chan
// channel's link, and on every backend the link of a channel from a rank
// to itself (newCycle).
type chanLink struct {
	mu         sync.Mutex
	send, recv *cycle
}

func (t *chanTransport) newLink(e *cycle) link { return newChanLink(e) }

// newChanLink builds endpoint e's side of an in-memory channel: a new link
// when e registers first, else the one its matched endpoint built.
func newChanLink(e *cycle) link {
	l := &chanLink{}
	if q := e.r.pend.peer; q != nil {
		l = q.cycle().link.(*chanLink)
	}
	l.mu.Lock()
	if e.r.send {
		l.send = e
	} else {
		l.recv = e
	}
	l.mu.Unlock()
	e.mu = &l.mu
	return l
}

// retire has nothing to reuse: a channel's link goes with its endpoints.
func (t *chanTransport) retire(uint64, bool) {}

// bind has nothing to do: the matched sides already share the link.
func (l *chanLink) bind(*cycle, *pend) {}

func (l *chanLink) put(*cycle, *batch) {
	if rv := l.recv; rv != nil && rv.state.Load() == cycOpen {
		l.move()
	}
}

// poll moves, when the receive cycle opens, the payload the open send
// cycle put before it.
func (l *chanLink) poll(*cycle) bool {
	if s := l.send; s != nil && s.state.Load() == cycOpen {
		l.move()
	}
	return false
}

// move lands the payload of the open send cycle in the open receive cycle.
func (l *chanLink) move() {
	s := l.send
	l.recv.land(payload{data: s.buf, flips: s.flips}, s.seq)
	s.sent()
}
