package mpi

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/flight"
)

// Persistent requests (SendInit/RecvInit + Start/Wait) implement the
// MPI_Send_init/MPI_Recv_init pattern: the two endpoints of a repeating
// transfer are matched ONCE, at plan-build time, into a channel, and every
// Start/Wait cycle reuses that channel with no matching, no envelope and no
// allocation.
//
// The matching rule, the same on every backend: a SendInit on rank S with
// (dst=R, tag=t) pairs with a RecvInit on rank R with (src=S, tag=t). When
// several endpoints share a (src, dst, tag) key — e.g. double-buffered
// exchangers that build one plan per buffer — they pair in registration
// order: the k-th live SendInit of the key with the k-th live RecvInit. A
// Free of an unmatched endpoint withdraws it, so the key's later
// registrations pair as if it had never existed — except a send endpoint
// that has started: its cycle is in flight, and the receive side that
// matches it later still takes it. All ranks must build their plans in the
// same program order per key (the rule MPI imposes on communicator
// construction). Wildcards are not supported, and persistent and one-shot
// traffic never cross-match.
//
// Matching happens on the receiving rank. The sender names the channel with
// a world-unique id at SendInit (ids are never reused); the receiving
// rank's matcher (pairing: one per World, emptied whenever an epoch starts)
// pairs senders with its RecvInits in registration order. The match is the
// one place that checks the payload fits the receive buffer, hands the
// receive side its sender's id, withdraws freed endpoints, and keeps the
// unpaired PendingOps and PersistentPending. A backend only binds its
// data path: newLink builds each side's link, link.bind attaches a receive
// side to the id of the sender it matched.
//
// Progress rule. Ranks hosted by this process (all of them under World.Run,
// the one rank of a worker attached with AttachShmemWorld or AttachTCPWorld)
// match synchronously inside SendInit and RecvInit. A receiving rank in
// another process learns of a registration or a withdrawal from a
// descriptor: a one-shot message on the reserved tag pairTag, sent on the
// sender's sys Comm, so it touches no traffic counter, flight ring or fault
// ordinal. A rank drains its descriptors only at its own persistent calls —
// SendInit, RecvInit, Free, and a wait for a match — and a receive
// endpoint's Wait blocks until its match completes.
// A send endpoint never waits for its match: its side is complete at
// registration, its cycles go out, and the receive side takes them once it
// has matched, so the sender needs no word back. A withdrawal reaches the
// receiver before anything its sender sends that receiver afterwards;
// across processes, ordering through a third rank does not order it.
//
// Cycle rule, the same on every backend (cycle.go). Each endpoint runs its
// own numbered cycles: Start opens cycle k, and the k-th send cycle of a
// channel fills the k-th receive cycle. A send puts its whole payload at
// Start. A receive cycle is complete once the payload has landed in its
// buffer, a send cycle once the payload is sent; Wait blocks until then,
// and a payload of a cycle not yet started waits for its Start. The cycle
// owns the states and their misuse panics, the flight records, the landing
// of a payload (copy, injected flips, CRC verdict, overflow check),
// completion, Wait, the counters and the stall listing: an endpoint is
// listed while its own Wait would block.
//
// A link (one per endpoint, built by the backend's newLink) only moves
// bytes: it sends the payload the cycle puts and reports it sent, lands
// the payloads that arrive through the cycle, polls for arrivals where
// nothing pushes them (shmem), and binds a receive side at its match.
// "Sent" is the backend's: delivered into the receive buffer on chan,
// staged in the segment on shmem, written to the stream on tcp — so a
// send's Wait returns at delivery on chan and at once on the eager
// backends. A channel from a rank to itself takes chan's link on every
// backend, so its send's Wait returns at delivery everywhere. A link never
// changes a cycle's state but through land and sent, never copies into a
// receive buffer itself, and reads a cycle's fields only under its lock.

// endpointKey identifies the (src, dst, tag) key of a persistent channel.
type endpointKey struct {
	src, dst, tag int
}

// pairTag is the reserved tag of pairing descriptors. Like collTag it lies
// below AnyTag, so no user receive can take one.
const pairTag = collTag - 1

// Descriptor kinds. A descriptor is descLen words (Float64frombits): kind,
// src, id, tag, elems, link.
const (
	descReg      = iota + 1 // a SendInit registered
	descWithdraw            // that SendInit was freed unmatched, never started
	descLen      = 6
)

// pend is one persistent endpoint as the matcher sees it: a SendInit or
// RecvInit of this process (r != nil) or a remote sender's registration
// (r == nil).
type pend struct {
	key   endpointKey
	psend bool
	id    uint64 // channel id: the sender's, adopted by the receive side at match
	elems int    // buffer length: the payload (send) or the capacity (receive)
	link  uint64 // the backend's data-path word: the sender's, adopted at match
	r     *Request
	peer  *pend         // the matched endpoint
	done  chan struct{} // receive: closed at match

	matched, freed bool
	started        bool // send: Start was called
}

// forever is the wait bound of a wait that has none.
const forever time.Duration = -1

// await blocks until a receive endpoint has matched, and returns at once
// for a send endpoint or a matched one. d bounds the wait (forever: no
// bound); a failed wait returns the world's *AbortError or a *TimeoutError.
func (p *pend) await(c *Comm, d time.Duration) error {
	if p.done == nil {
		return nil
	}
	select {
	case <-p.done:
		return nil
	default:
	}
	return c.world.pairs.await(c, p, d)
}

// pairing is a World's matcher. sends and recvs hold, per key, the endpoints
// no peer has matched yet, oldest first; eps holds every endpoint of this
// process that is not freed.
type pairing struct {
	mu    sync.Mutex
	sends map[endpointKey][]*pend
	recvs map[endpointKey][]*pend
	eps   []*pend
	seq   uint64 // id counter; never reset, so ids are never reused

	// in is the standing descriptor receive of a worker's rank, posted on
	// its sys Comm; inMu serializes the goroutines that drain it and guards
	// in and inBuf.
	inMu  sync.Mutex
	in    *Request
	inBuf [descLen]float64
}

// reset empties the matcher for a new epoch. The world is quiescent, and the
// transport has already dropped the standing receive.
func (pr *pairing) reset() {
	pr.mu.Lock()
	pr.sends, pr.recvs, pr.eps, pr.in = nil, nil, nil, nil
	pr.mu.Unlock()
}

// remote reports whether peer is hosted by another process than rank: only
// an attached worker world runs a single rank of its world.
func (w *World) remote(rank, peer int) bool { return w.solo && peer != rank }

// queue returns the unmatched-endpoint queues of one side, creating the
// maps on first use.
func (pr *pairing) queue(psend bool) map[endpointKey][]*pend {
	if pr.sends == nil {
		pr.sends, pr.recvs = map[endpointKey][]*pend{}, map[endpointKey][]*pend{}
	}
	if psend {
		return pr.sends
	}
	return pr.recvs
}

// drop removes p from its key's queue in m.
func drop(m map[endpointKey][]*pend, p *pend) {
	list := m[p.key]
	for i, q := range list {
		if q == p {
			if len(list) == 1 {
				delete(m, p.key)
			} else {
				m[p.key] = append(list[:i:i], list[i+1:]...)
			}
			return
		}
	}
}

// checkPair runs the plan-time size check of a send side s against its
// receive side q (nil when unknown): the payload must fit.
func checkPair(s, q *pend) {
	if k := s.key; q != nil && s.elems > q.elems {
		panic(fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
			k.src, k.dst, k.tag, s.elems, q.elems))
	}
}

// register builds endpoint p and matches it with the oldest peer waiting on
// its key in this process, or queues it.
func (pr *pairing) register(c *Comm, p *pend, buf []float64) {
	w := c.world
	inc := w.Incarnation(c.rank) // before pr.mu: enterEpoch takes pr.mu under roundMu
	pr.mu.Lock()
	defer pr.mu.Unlock()
	peers := pr.queue(!p.psend)
	var q *pend
	if list := peers[p.key]; len(list) > 0 {
		q = list[0]
	}
	p.peer = q
	if p.psend {
		if q != nil {
			checkPair(p, q)
		}
		pr.seq++
		p.id = inc<<48 | uint64(c.rank)<<32 | pr.seq&(1<<32-1)
	} else {
		if q != nil {
			checkPair(q, p)
		}
		p.done = make(chan struct{})
	}
	p.r = newCycle(c, p, buf).r
	pr.eps = append(pr.eps, p)
	switch {
	case q != nil:
		drop(peers, q)
		if p.psend {
			pr.match(p, q)
		} else {
			pr.match(q, p)
		}
	case !p.psend || !w.remote(c.rank, p.key.dst):
		m := pr.queue(p.psend)
		m[p.key] = append(m[p.key], p)
	}
}

// match pairs send side s with receive side q; pr.mu held, sizes checked.
func (pr *pairing) match(s, q *pend) {
	q.id, q.link = s.id, s.link
	s.peer, q.peer = q, s
	s.matched, q.matched = true, true
	e := q.cycle()
	e.link.bind(e, s)
	close(q.done)
}

// await blocks until receive endpoint p matches: a peer of this process
// matches it from its own goroutine, a peer in another process through a
// descriptor this rank drains.
func (pr *pairing) await(c *Comm, p *pend, d time.Duration) error {
	w := c.world
	expired := func() error {
		return &TimeoutError{After: d, Op: fmt.Sprintf("match precv src=%d tag=%d", p.key.src, p.key.tag)}
	}
	if !w.remote(c.rank, p.key.src) {
		var expire <-chan time.Time
		if d >= 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			expire = t.C
		}
		select {
		case <-p.done:
			return nil
		case <-w.abortCh:
			return w.Aborted()
		case <-expire:
			return expired()
		}
	}
	deadline := time.Now().Add(d)
	for {
		select {
		case <-p.done:
			return nil
		default:
		}
		left := forever
		if d >= 0 {
			if left = time.Until(deadline); left <= 0 {
				return expired()
			}
		}
		if err := pr.drain(c, left); err != nil {
			return err
		}
	}
}

// drain applies this rank's delivered descriptors. d == 0 polls: it applies
// every descriptor already delivered. Otherwise it waits up to d (forever:
// no bound) for one and applies it. Only a worker's rank receives
// descriptors.
func (pr *pairing) drain(c *Comm, d time.Duration) error {
	w := c.world
	if !w.solo {
		return nil
	}
	block := d != 0
	if block {
		pr.inMu.Lock()
	} else if !pr.inMu.TryLock() {
		return nil // another goroutine of the rank is draining
	}
	defer pr.inMu.Unlock()
	for {
		if pr.in == nil {
			pr.in = c.sys.irecv(AnySource, pairTag, pr.inBuf[:])
		}
		in := pr.in
		if _, err := in.op.wait(in, d); err != nil {
			if _, expired := err.(*TimeoutError); expired && !block {
				return nil
			}
			return err
		}
		desc := pr.inBuf
		pr.in = nil
		pr.apply(c, desc[:])
		if block {
			return nil
		}
	}
}

// apply acts on one descriptor delivered to rank c.
func (pr *pairing) apply(c *Comm, d []float64) {
	word := func(i int) int { return int(int64(math.Float64bits(d[i]))) }
	key := endpointKey{src: word(1), dst: c.rank, tag: word(3)}
	id := math.Float64bits(d[2])
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if word(0) == descWithdraw {
		for _, s := range pr.queue(true)[key] {
			if s.id == id {
				drop(pr.sends, s)
				c.world.tr.retire(s.link, false)
				return
			}
		}
		return // matched already: the channel's sender is gone
	}
	s := &pend{key: key, psend: true, id: id, elems: word(4), link: math.Float64bits(d[5])}
	if list := pr.queue(false)[key]; len(list) > 0 {
		q := list[0]
		checkPair(s, q)
		drop(pr.recvs, q)
		pr.match(s, q)
		return
	}
	pr.sends[key] = append(pr.sends[key], s)
}

// sendDesc posts one descriptor about endpoint p to rank dst.
func sendDesc(c *Comm, dst, kind int, p *pend) {
	var d [descLen]float64
	for i, v := range [descLen]uint64{uint64(kind), uint64(c.rank), p.id, uint64(p.key.tag),
		uint64(p.elems), p.link} {
		d[i] = math.Float64frombits(v)
	}
	c.sys.isend(dst, pairTag, d[:], nil, 0).Wait()
}

// unpaired reports whether p is an endpoint of this process queued for its
// match. A send endpoint whose receiver lives in another process is queued
// there, and the receiving process reports it.
func (w *World) unpaired(p *pend) bool {
	return !p.matched && !(p.psend && w.remote(p.key.src, p.key.dst))
}

// pendingOps lists this process's persistent operations for a StallReport:
// every queued endpoint no peer has matched (including remote senders'
// registrations and freed senders whose cycle is in flight), and the
// endpoints whose backend reports a cycle in flight.
func (pr *pairing) pendingOps(w *World) []PendingOp {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	var ops []PendingOp
	for _, m := range []map[endpointKey][]*pend{pr.sends, pr.recvs} {
		for _, list := range m {
			for _, p := range list {
				kind := flight.PendPrecvUnpaired
				if p.psend {
					kind = flight.PendPsendUnpaired
				}
				ops = append(ops, PendingOp{Kind: kind, Src: p.key.src, Dst: p.key.dst, Tag: p.key.tag,
					Bytes: int64(8 * p.elems), Persistent: true})
			}
		}
	}
	for _, p := range pr.eps {
		if w.unpaired(p) {
			continue // listed from its queue
		}
		if op, ok := p.cycle().pending(); ok {
			op.Src, op.Dst, op.Tag, op.Bytes, op.Persistent = p.key.src, p.key.dst, p.key.tag, int64(8*p.elems), true
			ops = append(ops, op)
		}
	}
	return ops
}

// PersistentPending reports this process's persistent-endpoint population:
// unmatched counts endpoints no peer has matched (each a latent deadlock —
// the watchdog reports them as psend-unpaired/precv-unpaired), and live
// counts channels some side in this process has not freed. After every
// exchanger on every rank is closed both are zero; leak tests assert that.
func (w *World) PersistentPending() (unmatched, live int) {
	pr := &w.pairs
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, p := range pr.eps {
		switch {
		case w.unpaired(p):
			unmatched++
			live++
		case p.psend || p.peer == nil || p.peer.r == nil || p.peer.freed:
			live++
		}
	}
	return unmatched, live
}

// free retires p. It reports whether this was the first Free, and whether a
// withdrawal must reach p's receiver in another process. An unmatched send
// that has started stays queued: its receive side still takes the cycle.
// The backend learns which sides of the channel are done with its data
// path (retire) — not for an endpoint of an epoch that has ended, whose
// data path the new epoch re-seeded.
func (pr *pairing) free(w *World, p *pend) (first, withdraw bool) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if p.freed {
		return false, false
	}
	p.freed = true
	i := slices.Index(pr.eps, p)
	if i < 0 {
		return true, false
	}
	pr.eps = slices.Delete(pr.eps, i, i+1)
	switch {
	case p.matched || p.started:
		w.tr.retire(p.link, p.psend)
	case p.psend && w.remote(p.key.src, p.key.dst):
		withdraw = true
		w.tr.retire(p.link, true)
	default:
		drop(pr.queue(p.psend), p)
		if p.psend { // no receive side will ever bind
			w.tr.retire(p.link, true)
			w.tr.retire(p.link, false)
		}
	}
	return true, withdraw
}

// rebind records p's new buffer length and reruns the size checks against
// the matched peer.
func (pr *pairing) rebind(p *pend, n int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	p.elems = n
	if p.psend {
		checkPair(p, p.peer)
	} else if p.peer != nil {
		checkPair(p.peer, p)
	}
}

// SendInit creates a persistent send endpoint: buf will be transmitted to
// rank dst with the given tag on every Start/Wait cycle. The endpoint is
// matched against the destination's RecvInit once (see the matching rule
// above); per-step Start/Wait then bypass matching entirely. The returned
// request is inactive until Start.
func (c *Comm) SendInit(dst, tag int, buf []float64) *Request {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: SendInit to invalid rank %d (size %d)", dst, c.world.size))
	}
	if tag < 0 {
		panic("mpi: send tag must be non-negative")
	}
	p := &pend{key: endpointKey{src: c.rank, dst: dst, tag: tag}, psend: true, elems: len(buf)}
	w := c.world
	if err := w.pairs.drain(c, 0); err != nil {
		panic(err)
	}
	w.pairs.register(c, p, buf)
	if w.remote(c.rank, dst) {
		sendDesc(c, dst, descReg, p)
	}
	return p.r
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
	p := &pend{key: endpointKey{src: src, dst: c.rank, tag: tag}, elems: len(buf)}
	w := c.world
	if err := w.pairs.drain(c, 0); err != nil {
		panic(err)
	}
	w.pairs.register(c, p, buf)
	return p.r
}

// Free tears down a persistent endpoint. An endpoint no peer has matched is
// withdrawn — so a later plan may reuse its (src, dst, tag) key without
// pairing with stale state; a started send stays for its receive side to
// match — and leaves the live count at once. A matched channel stays live
// until every side of it in this process freed it; this is what keeps
// World.PersistentPending honest for leak tests.
//
// Free retracts any Start of this side that has not yet been delivered and
// drops the buffer reference. In a fault-free run that is a no-op (Wait
// precedes teardown, and Wait only returns after delivery), but a rank
// unwinding from an abort Frees endpoints whose cycle never completed —
// and may munmap the backing arena (MemMap storage) immediately after.
// Without the retraction a surviving peer that Starts next would observe
// the stale start and copy from/into the unmapped pages, a fatal SIGSEGV no
// recover can catch. After the retraction the peer sees no pending
// delivery, blocks in Wait, and leaves through the abort channel. Calling
// Free twice on the same request is a no-op.
func (r *Request) Free() {
	e, ok := r.op.(*cycle)
	if !ok {
		return
	}
	c := r.comm
	w := c.world
	live := w.Aborted() == nil
	if live {
		w.pairs.drain(c, 0)
	}
	e.free()
	first, withdraw := w.pairs.free(w, r.pend)
	if first && withdraw && live {
		sendDesc(c, r.pend.key.dst, descWithdraw, r.pend)
	}
}
