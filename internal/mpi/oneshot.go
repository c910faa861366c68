package mpi

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
)

// One-shot Isend/Irecv, written once for every backend. Each rank this
// process hosts has one matcher: its posted receives no message matched,
// in post order, and the messages that arrived before a receive matched
// them, in arrival order. A posted receive takes the oldest matching
// message and an arriving message goes to the oldest matching posted
// receive, both through matches; a mailbox hands each sender's messages
// over in send order, so sends never overtake one another. Delivery lands
// the payload with the persistent cycle's own routine (payload.land) or
// finds it overflows; the receive's own Wait raises either, so a bad
// message blames its receiver on every backend.
//
// A backend keeps only a mailbox, which carries a message and hands it to
// its destination's matcher (World.arrive); the matcher releases it once
// its payload is copied out. A send completes at its release: at delivery
// on chan (rendezvous), once staged or written on shmem and tcp (eager).

// mailbox is a backend's share of one-shot traffic.
type mailbox interface {
	// send carries message a from rank c to rank dst, and calls a.release
	// once a's payload (the sender's buffer) may be reused.
	send(c *Comm, dst int, a arrival)
	// drain hands rank's matcher what the mailbox holds for it, and reports
	// whether arrivals must be polled for: true where nothing pushes them
	// (shmem), so a waiting receive drains again and again.
	drain(rank int) bool
	// peek lists the messages the mailbox holds that no matcher has taken,
	// without taking them (shmem: every rank's ring).
	peek() []PendingOp
}

// payload is one message in flight: words (a send buffer, a shmem block or
// staging slot) or wire bytes viewed in a tcp frame, the injected flips
// (byte offsets into the whole message), and the CRC its sender stamped
// when it carries one (a shmem one-shot block).
type payload struct {
	data    []float64
	wire    []byte
	flips   []fault.ByteFlip
	crc     uint32
	stamped bool
}

func (p *payload) elems() int {
	if p.wire != nil {
		return len(p.wire) / 8
	}
	return len(p.data)
}

// land copies the payload to the front of buf and lands its flips. With
// verify set it returns the CRC verdict on what landed, for src → dst on
// tag: checked against the sender's stamp, or without one against the copy
// before the flips. nil means intact or unchecked.
func (p *payload) land(buf []float64, verify bool, src, dst, tag int) *CorruptionError {
	to := buf[:p.elems()]
	if p.wire != nil {
		copyWire(to, p.wire)
	} else {
		copy(to, p.data)
	}
	sum := p.crc
	if verify && !p.stamped {
		sum = crcFloats(to)
	}
	applyFlips(to, p.flips)
	if verify && crcFloats(to) != sum {
		return &CorruptionError{Src: src, Dst: dst, Tag: tag}
	}
	return nil
}

// landVerdict is what landing found, raised by the Wait of the request that
// landed it once the transfer completed, so no peer is left blocked on it.
type landVerdict struct {
	corrupt  *CorruptionError
	overflow string
}

// raise panics with an overflow, or returns a CRC mismatch as the world's
// abort.
func (v *landVerdict) raise(r *Request) error {
	if v.overflow != "" {
		panic(v.overflow)
	}
	if v.corrupt == nil {
		return nil
	}
	w := r.comm.world
	w.abort(r.comm.rank, v.corrupt)
	return w.Aborted()
}

// arrival is one message as a mailbox hands it to a matcher: the envelope,
// the sender's flight stamp, the payload, and release, called once the
// payload is copied out. A payload without release is lent for the call
// only: a matcher that queues it keeps a copy.
type arrival struct {
	src, tag int
	seq      uint64
	payload
	release func()
}

// matcher is one rank's matching state.
type matcher struct {
	mu         sync.Mutex
	posted     []*oneshot
	unexpected []arrival
}

// matches is the one-shot matching rule. AnyTag matches user tags only: a
// tag below AnyTag (collTag, pairTag) is a separate context that only an
// exact receive takes.
func matches(wantSrc, wantTag, src, tag int) bool {
	return (wantSrc == AnySource || wantSrc == src) && (wantTag == tag || wantTag == AnyTag && tag > AnyTag)
}

// oneshot is the protocol op of a one-shot request, either direction, and
// holds its request. A send completes when its mailbox releases it, a
// receive at delivery.
type oneshot struct {
	r   Request
	buf []float64 // receive: the buffer
	at  time.Time // post time, when metrics are on
	n   int       // receive: elements delivered
	landVerdict

	// mu guards completion: fin is set at it, and wake, made only by a wait
	// that must block, is closed at it.
	mu   sync.Mutex
	fin  bool
	wake chan struct{}
}

func newOneshot(c *Comm, peer, tag int, send bool, buf []float64) *oneshot {
	o := &oneshot{buf: buf}
	o.r = Request{comm: c, op: o, send: send, peer: peer, tag: tag}
	if c.m != nil {
		o.at = time.Now()
	}
	return o
}

// isend posts a one-shot send whose generic stamping (fault delay, traffic
// counters, flight seq, metrics) already happened; flips is injected
// in-flight corruption, seq the sender's flight stamp.
func (c *Comm) isend(dst, tag int, buf []float64, flips []fault.ByteFlip, seq uint64) *Request {
	o := newOneshot(c, dst, tag, true, nil)
	c.world.tr.send(c, dst, arrival{src: c.rank, tag: tag, seq: seq,
		payload: payload{data: buf, flips: flips}, release: o.sent})
	return &o.r
}

// irecv posts a one-shot receive (src may be AnySource, tag AnyTag).
func (c *Comm) irecv(src, tag int, buf []float64) *Request {
	o := newOneshot(c, src, tag, false, buf)
	m := &c.world.matchers[c.rank]
	m.mu.Lock()
	for i := range m.unexpected {
		if a := m.unexpected[i]; matches(src, tag, a.src, a.tag) {
			m.unexpected = slices.Delete(m.unexpected, i, i+1)
			m.mu.Unlock()
			o.deliver(a)
			return &o.r
		}
	}
	m.posted = append(m.posted, o)
	m.mu.Unlock()
	return &o.r
}

// arrive hands message a to rank dst's matcher: the oldest matching posted
// receive takes it, or it queues. A mailbox calls it in each sender's send
// order.
func (w *World) arrive(dst int, a arrival) {
	m := &w.matchers[dst]
	m.mu.Lock()
	for i, o := range m.posted {
		if matches(o.r.peer, o.r.tag, a.src, a.tag) {
			m.posted = slices.Delete(m.posted, i, i+1)
			m.mu.Unlock()
			o.deliver(a)
			return
		}
	}
	if a.release == nil {
		a.data, a.wire = slices.Clone(a.data), slices.Clone(a.wire)
	}
	m.unexpected = append(m.unexpected, a)
	m.mu.Unlock()
}

// deliver lands message a in receive o, releases it, and completes o.
func (o *oneshot) deliver(a arrival) {
	c := o.r.comm
	n := a.elems()
	if n > len(o.buf) {
		o.overflow = fmt.Sprintf("mpi: message overflows receive buffer (src %d tag %d)", a.src, a.tag)
	} else {
		o.corrupt = a.land(o.buf, c.world.verifyCRC, a.src, c.rank, a.tag)
	}
	if a.release != nil {
		a.release()
	}
	if m := c.m; m != nil {
		m.recvMatchWait.Observe(time.Since(o.at).Seconds())
		m.recvBytes.Observe(float64(8 * n))
	}
	c.fl.Deliver(int32(a.src), int32(a.tag), int64(8*n), a.seq)
	o.n = n
	o.complete()
}

// sent completes a send, whose latency runs from post to here: delivery on
// chan, the mailbox handoff on shmem and tcp.
func (o *oneshot) sent() {
	if m := o.r.comm.m; m != nil {
		m.sendSeconds.Observe(time.Since(o.at).Seconds())
	}
	o.complete()
}

func (o *oneshot) complete() {
	o.mu.Lock()
	o.fin = true
	if o.wake != nil {
		close(o.wake)
	}
	o.mu.Unlock()
}

func (o *oneshot) completed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fin
}

// awake returns the channel o's completion closes, or nil once complete.
func (o *oneshot) awake() <-chan struct{} {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fin {
		return nil
	}
	if o.wake == nil {
		o.wake = make(chan struct{})
	}
	return o.wake
}

// wait blocks until the request completes, the world aborts or d expires
// (forever: no bound), then raises what delivery found, ticks progress and,
// for a receive, counts what arrived. A receive whose mailbox must be
// polled drains it until then.
func (o *oneshot) wait(r *Request, d time.Duration) (int, error) {
	c := r.comm
	w := c.world
	var sp spinner
	var t0 time.Time
	for !r.send && !o.completed() && w.tr.drain(c.rank) && !o.completed() {
		if t0.IsZero() {
			t0 = time.Now()
		}
		switch {
		case w.Aborted() != nil:
			return 0, w.Aborted()
		case d >= 0 && time.Since(t0) > d:
			return 0, &TimeoutError{After: d, Op: r.opName()}
		}
		sp.spin()
	}
	if wake := o.awake(); wake != nil {
		var expire <-chan time.Time
		if d >= 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			expire = t.C
		}
		select {
		case <-wake:
		case <-w.abortCh:
			return 0, w.Aborted()
		case <-expire:
			return 0, &TimeoutError{After: d, Op: r.opName()}
		}
	}
	if err := o.raise(r); err != nil {
		return 0, err
	}
	w.progressTick()
	if r.send {
		return 0, nil
	}
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(8 * o.n))
	return o.n, nil
}

// oneShotOps lists one-shot traffic for the watchdog: what the mailbox
// holds, then every matcher's posted receives and unexpected messages.
// Collective messages are listed (the stall predicate counts them; the
// StallReport leaves them out), pairing descriptors are bookkeeping, not
// waits, and are not.
func (w *World) oneShotOps() []PendingOp {
	ops := w.tr.peek()
	for dst := range w.matchers {
		m := &w.matchers[dst]
		m.mu.Lock()
		for _, o := range m.posted {
			if o.r.tag != pairTag {
				ops = append(ops, PendingOp{Kind: flight.PendRecvPosted, Src: o.r.peer, Dst: dst, Tag: o.r.tag,
					Bytes: int64(8 * len(o.buf))})
			}
		}
		for _, a := range m.unexpected {
			if a.tag != pairTag {
				ops = append(ops, PendingOp{Kind: flight.PendSendUnmatched, Src: a.src, Dst: dst, Tag: a.tag,
					Bytes: int64(8 * a.elems())})
			}
		}
		m.mu.Unlock()
	}
	return ops
}

// resetMatchers empties every matcher as the world enters a new epoch: the
// dead epoch's posted receives and unexpected messages go with it.
func (w *World) resetMatchers() {
	for i := range w.matchers {
		m := &w.matchers[i]
		m.mu.Lock()
		m.posted, m.unexpected = nil, nil
		m.mu.Unlock()
	}
}
