package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
)

// The persistent cycle — Start, Wait — written once for every backend (the
// cycle rule is in persistent.go's header). A cycle is one endpoint's state
// machine; a link is how its backend moves the bytes.

// link is one endpoint's data path on its backend. The cycle calls it with
// the endpoint's lock held (bind excepted) and the link calls back into
// the cycle through land and sent.
type link interface {
	// put hands the payload of the open send cycle off, at Start. b is the
	// batch of the call that put it, nil off tcp (tcp_node.go). The link
	// calls e.sent once the payload is on its way: at once, or, if it
	// queued the payload in b, when the call flushes b.
	put(e *cycle, b *batch)
	// poll lands, through e.land, whatever has arrived for the open receive
	// cycle e. The cycle calls it at receive Start and, while it waits,
	// again and again if the Start's poll reported that arrivals must be
	// polled for (shmem); false means the link lands them as they come, and
	// a wait blocks until the cycle completes.
	poll(e *cycle) bool
	// bind attaches receive endpoint e to the data path of the send side s
	// it matched (s.id, s.link). Called once, at the match, with the
	// matcher's lock held and e's lock not.
	bind(e *cycle, s *pend)
}

// Cycle states. A Start opens a cycle; the payload landed (receive) or
// sent (send) makes it done; Wait returns it to idle.
const (
	cycIdle uint32 = iota // before the first Start, after Wait
	cycOpen               // started: this side's Wait would block
	cycDone               // complete, not yet waited
)

// cycle is one persistent endpoint's cycle state machine and the reqOp of
// its Request. mu guards every field but state, which completion publishes
// to Wait and the stall listing; chan's two endpoints share their link's
// lock.
type cycle struct {
	r    *Request
	link link
	mu   *sync.Mutex
	own  sync.Mutex

	buf   []float64
	freed bool // Free ran: what still arrives is dropped

	state atomic.Uint32
	n     uint64        // cycle number: the count of Starts
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
	e := &cycle{buf: buf, done: make(chan struct{}, 1)}
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

// Start activates a persistent request for one transfer. The request must
// be inactive: starting again before Wait panics (as in MPI). Data becomes
// visible in the receive buffer only after the receiver's Wait returns.
func (r *Request) Start() {
	b := r.comm.batch()
	defer b.flush()
	r.start(b)
}

// start opens the request's next cycle, putting a send's payload in b.
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
		seq = c.fl.Send(int32(r.peer), int32(r.tag), int64(8*n))
	} else {
		c.fl.RecvPost(int32(r.peer), int32(r.tag), int64(8*n))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Load() != cycIdle {
		panic(fmt.Sprintf("mpi: persistent %s started twice without Wait", e.side()))
	}
	e.n++
	e.elems = 0
	e.seq, e.flips, e.landVerdict = seq, flips, landVerdict{}
	if r.send && c.m != nil {
		e.at = time.Now()
	}
	e.state.Store(cycOpen)
	if r.send {
		e.link.put(e, b)
	} else {
		e.pull = e.link.poll(e)
	}
}

// Startall starts every request in the slice (MPI_Startall) as one call:
// on tcp the payloads of its sends leave in one write per destination. Nil
// entries are skipped.
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

// land lands payload p of the open receive cycle in the receive buffer:
// its flips are the cycle's injected corruption and fseq the sender's
// flight stamp. An overflow or a CRC mismatch is raised at Wait. A payload
// of a cycle that is not open is dropped. Called by the link, e.mu held.
func (e *cycle) land(p payload, fseq uint64) {
	if e.state.Load() != cycOpen {
		return
	}
	r := e.r
	c := r.comm
	n := p.elems()
	if n > len(e.buf) {
		e.overflow = fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
			r.peer, c.rank, r.tag, n, len(e.buf))
		e.complete()
		return
	}
	e.corrupt = p.land(e.buf, c.world.verifyCRC, r.peer, c.rank, r.tag)
	e.elems = n
	c.fl.Deliver(int32(r.peer), int32(r.tag), int64(8*n), fseq)
	e.complete()
}

// sent records that the link sent the payload of the open send cycle,
// completing it. A payload whose cycle was freed meanwhile no longer
// counts. Called by the link, e.mu held.
func (e *cycle) sent() {
	if e.state.Load() == cycOpen {
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
// a corrupt payload aborts the world. It returns a completed cycle to idle:
// progress tick, and on the receive side the traffic counters, on the send
// side its latency. An inactive request returns 0 at once.
func (e *cycle) wait(r *Request, d time.Duration) (int, error) {
	if e.state.Load() == cycOpen {
		wait := e.sleep
		if e.pull {
			wait = e.spin
		}
		if err := wait(r, d); err != nil {
			return 0, err
		}
	}
	if e.state.Load() == cycDone { // else inactive, or freed while waiting
		if err := e.raise(r); err != nil {
			return 0, err
		}
	}
	c := r.comm
	c.world.progressTick()
	n, at := e.elems, e.at
	if !e.state.CompareAndSwap(cycDone, cycIdle) {
		return 0, nil // Wait on an inactive request
	}
	if r.send {
		if m := c.m; m != nil {
			m.sendSeconds.Observe(time.Since(at).Seconds())
		}
		return 0, nil
	}
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(8 * n))
	if m := c.m; m != nil {
		m.recvBytes.Observe(float64(8 * n))
	}
	return n, nil
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

// pending lists the endpoint for a StallReport while its Wait would block
// (Kind only; the caller fills in the endpoints and size).
func (e *cycle) pending() (PendingOp, bool) {
	if e.state.Load() != cycOpen {
		return PendingOp{}, false
	}
	if !e.r.send {
		return PendingOp{Kind: flight.PendPrecvActive}, true
	}
	return PendingOp{Kind: flight.PendPsendActive}, true
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
