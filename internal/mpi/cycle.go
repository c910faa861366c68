package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
)

// The persistent cycle — Start, Pready, Parrived, Wait — written once for
// every backend (the cycle rule is in persistent.go's header). A cycle is
// one endpoint's state machine; a link is how its backend moves the bytes.

// link is one endpoint's data path on its backend. The cycle calls it with
// the endpoint's lock held (bind excepted) and the link calls back into
// the cycle through land and sent.
type link interface {
	// put hands span part of the open send cycle off: -1 is the whole
	// payload of an unpartitioned send, at Start; otherwise a partition, at
	// its Pready. b is the batch of the call that put it, nil off tcp
	// (tcp_node.go). The link calls e.sent once the span is on its way: at
	// once, or, if it queued the span in b, when the call flushes b.
	put(e *cycle, part int, b *batch)
	// poll lands, through e.land, whatever has arrived for the open receive
	// cycle e. The cycle calls it at receive Start and from Parrived, and,
	// while it waits, again and again if the Start's poll reported that
	// arrivals must be polled for (shmem); false means the link lands them
	// as they come, and a wait blocks until the cycle completes.
	poll(e *cycle) bool
	// bind attaches receive endpoint e to the data path of the send side s
	// it matched (s.id, s.link, s.parts). Called once, at the match, with
	// the matcher's lock held and e's lock not.
	bind(e *cycle, s *pend)
}

// Cycle states. A Start opens a cycle; the last span landed (receive) or
// sent (send) makes it done; Wait returns it to idle.
const (
	cycIdle uint32 = iota // before the first Start, after Wait
	cycOpen               // started: this side's Wait would block
	cycDone               // complete, not yet waited
)

// cycle is one persistent endpoint's cycle state machine and the reqOp of
// its Request. mu guards every field but state, which completion publishes
// to Wait and the stall listing; chan's two endpoints share their link's
// lock, so a Pready there takes one lock.
type cycle struct {
	r    *Request
	link link
	mu   *sync.Mutex
	own  sync.Mutex

	buf    []float64
	bounds []int // send: the partition bounds, nil when unpartitioned
	parts  int   // partition count; a receive side adopts its sender's at the match
	freed  bool  // Free ran: what still arrives is dropped

	state atomic.Uint32
	n     uint64        // cycle number: the count of Starts
	marks []uint64      // per partition: the cycle it was marked ready (send) or arrived in (receive)
	spans int           // spans sent (send) or landed (receive) this cycle
	elems int           // receive: elements landed this cycle
	pull  bool          // receive: set by Start's poll, read by the Wait that follows it
	done  chan struct{} // cap 1: a completion wakes a blocked Wait; a token nobody took stays

	seq         uint64           // send: the cycle's flight stamp
	flips       []fault.ByteFlip // send: the cycle's injected corruption
	at          time.Time        // send: Start time, when metrics are on
	landVerdict                  // receive: the CRC verdict or an overflow, raised at Wait
}

// newCycle builds endpoint p's cycle, its Request and its link: the
// backend's, or the in-memory chanLink when the peer is the rank itself.
func newCycle(c *Comm, p *pend, buf []float64) *cycle {
	e := &cycle{buf: buf, bounds: p.bounds, parts: p.parts, marks: make([]uint64, p.parts),
		done: make(chan struct{}, 1)}
	e.mu = &e.own
	peer := p.key.src
	if p.psend {
		peer = p.key.dst
	}
	e.r = &Request{comm: c, op: e, pend: p, send: p.psend, peer: peer, tag: p.key.tag}
	if peer == c.rank {
		e.link = newChanLink(e) // a rank's channel to itself moves in memory on every backend
	} else {
		e.link = c.world.tr.newLink(e)
	}
	return e
}

// cycle returns the cycle of an endpoint of this process.
func (p *pend) cycle() *cycle { return p.r.op.(*cycle) }

func (e *cycle) side() string {
	if e.r.send {
		return "send"
	}
	return "receive"
}

// span returns the element range of span part of a send cycle.
func (e *cycle) span(part int) (lo, hi int) {
	if part < 0 {
		return 0, len(e.buf)
	}
	return e.bounds[part], e.bounds[part+1]
}

// Start activates a persistent request for one transfer. The request must
// be inactive: starting again before Wait panics (as in MPI). Data becomes
// visible in the receive buffer only after the receiver's Wait returns (or,
// partition by partition, once Parrived reports it).
func (r *Request) Start() {
	b := r.comm.batch()
	defer b.flush()
	r.start(b)
}

// start opens the request's next cycle, putting an unpartitioned send's
// payload in b.
func (r *Request) start(b *batch) {
	e, ok := r.op.(*cycle)
	if !ok {
		panic("mpi: Start on a non-persistent request")
	}
	c := r.comm
	n := r.pend.elems
	var seq uint64
	var flips []fault.ByteFlip
	if r.send {
		r.pend.started = true
		if f := c.world.fault; f != nil {
			if d := f.SendDelay(c.rank); d > 0 {
				time.Sleep(d)
			}
			f.ProcessFault(c.rank)
			flips = f.CorruptSend(c.rank, n)
		}
		c.sentMsgs.Add(1)
		c.sentBytes.Add(int64(8 * n))
		if m := c.m; m != nil {
			m.sendBytes.Observe(float64(8 * n))
		}
		seq = c.fl.Send(int32(r.peer), int32(r.tag), -1, int64(8*n))
	} else {
		c.fl.RecvPost(int32(r.peer), int32(r.tag), int64(8*n))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Load() != cycIdle {
		panic(fmt.Sprintf("mpi: persistent %s started twice without Wait", e.side()))
	}
	e.n++
	e.spans, e.elems = 0, 0
	e.seq, e.flips, e.landVerdict = seq, flips, landVerdict{}
	if r.send && c.m != nil {
		e.at = time.Now()
	}
	e.state.Store(cycOpen)
	switch {
	case !r.send:
		e.pull = e.link.poll(e)
	case e.parts == 0:
		e.link.put(e, -1, b)
	}
}

// Startall starts every request in the slice (MPI_Startall) as one call:
// on tcp the payloads of its unpartitioned sends leave in one write per
// destination. Nil entries are skipped.
func Startall(reqs []*Request) {
	i := 0
	for i < len(reqs) && reqs[i] == nil {
		i++
	}
	if i == len(reqs) {
		return
	}
	b := reqs[i].comm.batch()
	defer b.flush()
	for _, r := range reqs[i:] {
		if r != nil {
			r.start(b)
		}
	}
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
	b := r.comm.batch()
	defer b.flush()
	r.pready(lo, hi, b)
}

// Preadyall marks partition parts[i] of reqs[i] ready for every i, as one
// call: the partitioned analogue of Startall. Each entry is a Pready —
// same rules, same panics — and a request may appear once per partition.
// The spans it puts leave together before it returns: on tcp in one write
// per destination, however many partitions go there. Safe to call
// concurrently from different goroutines on different partitions. Panics
// if the slices differ in length.
func Preadyall(reqs []*Request, parts []int) {
	if len(reqs) != len(parts) {
		panic(fmt.Sprintf("mpi: Preadyall with %d requests but %d partitions", len(reqs), len(parts)))
	}
	if len(reqs) == 0 {
		return
	}
	b := reqs[0].comm.batch()
	defer b.flush()
	for i, r := range reqs {
		r.pready(parts[i], parts[i]+1, b)
	}
}

// pready marks partitions [lo, hi) of r ready, putting their spans in b.
// Every check runs before the first mark, so a misuse panic leaves the
// cycle as it was.
func (r *Request) pready(lo, hi int, b *batch) {
	e, ok := r.op.(*cycle)
	if !ok || !r.send {
		panic("mpi: Pready on a non-persistent or receive request")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.parts == 0:
		panic("mpi: Pready on an unpartitioned persistent send")
	case e.state.Load() == cycIdle:
		panic("mpi: Pready before Start")
	case lo < 0 || hi > e.parts || lo >= hi:
		panic(fmt.Sprintf("mpi: Pready range [%d,%d) out of bounds for %d partitions", lo, hi, e.parts))
	}
	c := r.comm
	k := e.n
	for i := lo; i < hi; i++ {
		if e.marks[i] == k {
			panic(fmt.Sprintf("mpi: partition %d marked ready twice in one cycle", i))
		}
	}
	for i := lo; i < hi; i++ {
		e.marks[i] = k
		c.fl.Record(flight.KindPready, int32(r.peer), int32(r.tag), int32(i),
			int64(8*(e.bounds[i+1]-e.bounds[i])), e.seq)
		e.link.put(e, i, b)
	}
	// Partitions advancing is progress: without this tick a long compute
	// phase with an armed pipeline would read as a stall to the watchdog.
	c.world.progressTick()
}

// PreadyAll marks every partition of the active cycle ready at once — the
// prologue form for data that is already fully computed.
func (r *Request) PreadyAll() {
	if r.pend != nil && r.send && r.pend.parts > 0 {
		r.PreadyRange(0, r.pend.parts)
		return
	}
	panic("mpi: PreadyAll on a non-partitioned request")
}

// Parrived reports whether partition i of the receive cycle has been
// delivered (MPI_Parrived). Once the endpoint has matched it is a
// non-blocking poll: callers may consume the partition's span of the
// receive buffer as soon as it returns true, but the request still
// requires Wait to finish the cycle. It stays true from the partition's
// arrival until the next Start. Panics on a send request or when the
// matched sender is unpartitioned.
func (r *Request) Parrived(i int) bool {
	e, ok := r.op.(*cycle)
	if !ok || r.send {
		panic("mpi: Parrived on a non-persistent or send request")
	}
	switch parts := r.Partitions(); {
	case parts == 0:
		panic("mpi: Parrived with no partitioned sender matched")
	case i < 0 || i >= parts:
		panic(fmt.Sprintf("mpi: Parrived partition %d out of range (%d partitions)", i, parts))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	k := e.n
	if e.marks[i] != k && e.state.Load() == cycOpen {
		e.link.poll(e)
	}
	return k > 0 && e.marks[i] == k
}

// Rebind swaps the buffer behind an inactive persistent request, keeping
// the matched channel and its (src, dst, tag) identity. The peer is
// unaffected — the wire format is the flat []float64 payload either way —
// which is what lets a degraded exchanger substitute a copy-window buffer
// for a mapped view mid-run without renegotiating the plan. Panics on a
// non-persistent request, on an active (Started, un-Waited) request, or if
// the new buffer fails the size checks against the matched peer.
func (r *Request) Rebind(buf []float64) {
	e, ok := r.op.(*cycle)
	if !ok {
		panic("mpi: Rebind on a non-persistent request")
	}
	e.mu.Lock()
	if e.state.Load() != cycIdle {
		e.mu.Unlock()
		panic("mpi: Rebind on an active persistent " + e.side())
	}
	e.buf = buf
	e.mu.Unlock()
	r.comm.world.pairs.rebind(r.pend, len(buf))
}

// land lands span p of the open receive cycle in the receive buffer: part
// is its partition (-1: an unpartitioned payload), lo its element offset,
// its flips the cycle's injected corruption (absolute offsets; the span's
// own apply) and fseq the sender's flight stamp. An overflow or a CRC
// mismatch is raised at Wait. A span of a cycle that is not open, or of a
// partition that already arrived, is dropped. Called by the link, e.mu
// held.
func (e *cycle) land(part, lo int, p payload, fseq uint64) {
	if e.state.Load() != cycOpen || part >= e.parts || part >= 0 && e.marks[part] == e.n {
		return
	}
	r := e.r
	c := r.comm
	n := p.elems()
	if lo < 0 || lo+n > len(e.buf) {
		e.overflow = fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
			r.peer, c.rank, r.tag, lo+n, len(e.buf))
		e.complete()
		return
	}
	if cr := p.land(e.buf, lo, c.world.verifyCRC && e.corrupt == nil, r.peer, c.rank, r.tag); cr != nil {
		e.corrupt = cr
	}
	e.elems += n
	e.spans++
	if part >= 0 {
		e.marks[part] = e.n
		c.fl.Record(flight.KindParrived, int32(r.peer), int32(r.tag), int32(part), int64(8*n), fseq)
	}
	if e.spans == max(e.parts, 1) {
		c.fl.Deliver(int32(r.peer), int32(r.tag), -1, int64(8*e.elems), fseq)
		e.complete()
	}
}

// sent records that the link sent one span of the open send cycle; the
// last completes it. A span whose cycle was freed meanwhile no longer
// counts. Called by the link, e.mu held.
func (e *cycle) sent() {
	if e.state.Load() != cycOpen {
		return
	}
	e.spans++
	if e.spans == max(e.parts, 1) {
		e.complete()
	}
}

// complete ends the open cycle and wakes its Wait if one is blocked: the
// token stays in done when none is, and a Wait rechecks the state after
// taking one, so a stale token costs a recheck. e.mu held.
func (e *cycle) complete() {
	e.state.Store(cycDone)
	select {
	case e.done <- struct{}{}:
	default:
	}
}

// wait blocks until the cycle completes, the world aborts or d expires
// (forever: no bound), then raises what landing found: an overflow panics,
// a corrupt payload aborts the world. An inactive request returns at once.
func (e *cycle) wait(r *Request, d time.Duration) error {
	if e.state.Load() == cycOpen {
		wait := e.sleep
		if e.pull {
			wait = e.spin
		}
		if err := wait(r, d); err != nil {
			return err
		}
	}
	if e.state.Load() != cycDone {
		return nil // inactive, or freed while waiting
	}
	return e.raise(r)
}

// sleep blocks on completion tokens while the cycle is open.
func (e *cycle) sleep(r *Request, d time.Duration) error {
	w := r.comm.world
	var expire <-chan time.Time
	if d >= 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expire = t.C
	}
	for e.state.Load() == cycOpen {
		select {
		case <-e.done:
		case <-w.abortCh:
			return w.Aborted()
		case <-expire:
			return &TimeoutError{After: d, Op: r.opName()}
		}
	}
	return nil
}

// spin polls the link while the receive cycle is open.
func (e *cycle) spin(r *Request, d time.Duration) error {
	w := r.comm.world
	var deadline time.Time
	if d >= 0 {
		deadline = time.Now().Add(d)
	}
	var sp spinner
	for {
		e.mu.Lock()
		if e.state.Load() == cycOpen {
			e.link.poll(e)
		}
		open := e.state.Load() == cycOpen
		e.mu.Unlock()
		switch {
		case !open:
			return nil
		case w.Aborted() != nil:
			return w.Aborted()
		case d >= 0 && time.Now().After(deadline):
			return &TimeoutError{After: d, Op: r.opName()}
		}
		sp.spin()
	}
}

// finish returns a completed cycle to idle: progress tick, and on the
// receive side the traffic counters, on the send side its latency.
func (e *cycle) finish(r *Request) int {
	c := r.comm
	c.world.progressTick()
	n, at := e.elems, e.at
	if !e.state.CompareAndSwap(cycDone, cycIdle) {
		return 0 // Wait on an inactive request
	}
	if r.send {
		if m := c.m; m != nil {
			m.sendSeconds.Observe(time.Since(at).Seconds())
		}
		return 0
	}
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(8 * n))
	if m := c.m; m != nil {
		m.recvBytes.Observe(float64(8 * n))
	}
	return n
}

// pending lists the endpoint for a StallReport while its Wait would block
// (Kind and the partition fields; the caller fills in the endpoints and
// size). A link may hold e.mu while it waits for its peer, and the
// watchdog must still get in: then the partition detail is left out.
func (e *cycle) pending() (PendingOp, bool) {
	if e.state.Load() != cycOpen {
		return PendingOp{}, false
	}
	if !e.r.send {
		return PendingOp{Kind: flight.PendPrecvActive}, true
	}
	op := PendingOp{Kind: flight.PendPsendActive}
	if e.parts > 0 && e.mu.TryLock() {
		op.Partitions = e.parts
		for i, k := range e.marks {
			if k == e.n {
				op.Ready++
			} else {
				op.Unready = append(op.Unready, i)
			}
		}
		e.mu.Unlock()
		if op.Ready < e.parts {
			op.Kind = flight.PendPsendPartial
		}
	}
	return op, true
}

// free retracts this side's cycle and drops its buffer reference: a peer
// that fires next finds nothing open to deliver from or into, and frames
// still arriving are dropped.
func (e *cycle) free() {
	e.mu.Lock()
	e.state.Store(cycIdle)
	e.buf, e.freed = nil, true
	e.mu.Unlock()
}
