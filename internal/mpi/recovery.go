package mpi

import (
	"fmt"
	"sync"
)

// Recovery (ULFM-style revoke/respawn, in-process form). World.Run is
// fail-loud: the first panic aborts every rank and re-raises in the caller.
// RunRecoverable inserts a recovery layer between the abort and the caller:
// when a world-wide abort fires, surviving ranks park at an in-memory
// recovery barrier instead of exiting, a supervisor consults an onRecover
// policy, and on a retry verdict the whole world is re-armed (Respawn) and
// every rank — including the one that died, whose goroutine unwound — is
// relaunched from the rank body. The rank body is therefore the "rank
// constructor": it must rebuild its exchangers and restore state from a
// checkpoint on re-entry (the harness layer owns that protocol).
//
// The dance per failed epoch:
//
//  1. Some rank panics (or the watchdog/CRC verifier calls Revoke): the
//     normal abort path runs — abortCh closes, every blocked operation
//     unwinds with the *AbortError.
//  2. Each rank goroutine recovers the abort and parks in
//     parkForRecovery, ticking the watchdog progress counter so the park
//     itself is never mistaken for a stall. Parked ranks are visible in
//     StallReport as `recovery-parked` pending ops.
//  3. When every non-completed rank is parked the world is quiescent by
//     construction: no goroutine can touch inboxes or persistent channels. The supervisor stops the watchdog and asks
//     onRecover(abortErr, attempt) for a verdict.
//  4. Retry: Respawn() wipes transport state (inboxes), empties the
//     persistent-endpoint matcher and re-arms the abort machinery,
//     the watchdog restarts for the new epoch, and releaseAll(true)
//     resumes every parked rank into the next body invocation.
//  5. Give up: releaseAll(false) lets parked ranks exit, and
//     RunRecoverable re-raises the original *AbortError — identical
//     fail-loud behavior to Run, one recovery layer later.
type recoveryState struct {
	mu        sync.Mutex
	parked    map[int]bool  // ranks parked at the recovery barrier
	completed int           // ranks that finished the body this epoch
	release   chan struct{} // closed to end the current parked round
	allParked chan struct{} // closed when every live rank is parked
	resume    bool          // verdict for the round being released
}

func newRecoveryState() *recoveryState {
	return &recoveryState{
		parked:    map[int]bool{},
		release:   make(chan struct{}),
		allParked: make(chan struct{}),
	}
}

// parkedRanks returns the parked rank ids, unsorted.
func (rs *recoveryState) parkedRanks() []int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]int, 0, len(rs.parked))
	for r := range rs.parked {
		out = append(out, r)
	}
	return out
}

// releaseAll ends the current parked round with the given verdict and arms
// a fresh round. Called by the supervisor with the world quiescent.
func (rs *recoveryState) releaseAll(resume bool) {
	rs.mu.Lock()
	rs.resume = resume
	rs.parked = map[int]bool{}
	rs.completed = 0
	rs.allParked = make(chan struct{})
	old := rs.release
	rs.release = make(chan struct{})
	rs.mu.Unlock()
	close(old)
}

// RunRecoverable is Run with a recovery policy. body runs once per rank per
// epoch and must be re-entrant: on recovery it is invoked again on a fresh
// goroutine for every rank and must rebuild its communication plans from
// scratch (Respawn emptied the persistent-endpoint matcher). onRecover is
// called once per world-wide abort, with the *AbortError and the 1-based
// attempt number, while every rank is parked and the world is quiescent —
// it may checkpoint-rewind, log, sleep for backoff, and decide: true to
// respawn and retry, false to give up. On give-up (and on a nil onRecover,
// which degenerates to Run) the *AbortError re-raises in the caller exactly
// as Run would.
func (w *World) RunRecoverable(body func(*Comm), onRecover func(ae *AbortError, attempt int) bool) {
	if onRecover == nil {
		w.Run(body)
		return
	}
	rs := newRecoveryState()
	w.recov = rs
	defer func() { w.recov = nil }()
	stopWatchdog := w.startWatchdog()
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.newComm(rank)
			for {
				if w.runRankEpoch(c, body) {
					return
				}
				if !w.parkForRecovery(rank) {
					return
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	attempt := 0
	for {
		rs.mu.Lock()
		allParked := rs.allParked
		rs.mu.Unlock()
		select {
		case <-done:
			stopWatchdog()
			if ae := w.Aborted(); ae != nil {
				panic(ae)
			}
			return
		case <-allParked:
			stopWatchdog()
			ae := w.Aborted()
			rs.mu.Lock()
			nCompleted := rs.completed
			rs.mu.Unlock()
			retry := false
			if nCompleted == 0 {
				// Only a world where no rank finished the epoch can rewind:
				// a completed rank's goroutine already exited and cannot be
				// replayed. (Reaching here with completions requires the
				// abort to land after the epoch's closing barrier — e.g. a
				// watchdog misfire — and the only safe verdict is give up.)
				attempt++
				retry = onRecover(ae, attempt)
			}
			if retry {
				w.Respawn()
				stopWatchdog = w.startWatchdog()
			}
			rs.releaseAll(retry)
			if !retry {
				// Parked ranks are exiting; the done case re-raises ae.
				stopWatchdog = func() {}
			}
		}
	}
}

// runRankEpoch runs one epoch of body on rank c, reporting whether the rank
// completed it (true) or unwound from a world-wide abort (false, park next).
// A trailing abort-aware barrier separates "my body returned" from "the
// epoch succeeded": without it a rank could finish and exit while a peer
// panics mid-step, leaving the recovery round short one participant.
func (w *World) runRankEpoch(c *Comm, body func(*Comm)) (completed bool) {
	defer func() {
		if p := recover(); p != nil {
			if ae, ok := p.(*AbortError); ok && ae == w.Aborted() {
				return // victim of the world-wide abort, not the originator
			}
			w.abort(c.rank, p)
		}
	}()
	body(c)
	c.Barrier()
	rs := w.recov
	rs.mu.Lock()
	rs.completed++
	rs.mu.Unlock()
	return true
}

// parkForRecovery blocks the rank at the recovery barrier until the
// supervisor rules on the abort. Returns true to re-run the body (world
// respawned), false to exit (recovery refused or budget exhausted).
func (w *World) parkForRecovery(rank int) (resume bool) {
	rs := w.recov
	rs.mu.Lock()
	rs.parked[rank] = true
	release := rs.release
	if len(rs.parked)+rs.completed == w.size {
		close(rs.allParked)
	}
	rs.mu.Unlock()
	// The park is progress, not a stall: without this tick a slow peer's
	// unwind could push the quiet period past the watchdog timeout.
	w.progressTick()
	<-release
	rs.mu.Lock()
	resume = rs.resume
	rs.mu.Unlock()
	return resume
}

// Revoke aborts the world on behalf of rank without panicking the caller —
// the exported form of the internal abort path, for drivers that detect a
// failure outside any rank goroutine (health checks, external verifiers).
// Every blocked operation unwinds with the resulting *AbortError; under
// RunRecoverable the ranks then park for a recovery verdict.
func (w *World) Revoke(rank int, cause any) { w.abort(rank, cause) }

// Respawn re-arms an aborted world for a new epoch. The caller must
// guarantee quiescence — every rank goroutine parked or exited, watchdog
// stopped — which RunRecoverable establishes before calling it. It asks
// the transport to wipe all wire state (a mid-exchange abort strands
// envelopes and posted receives), then empties the persistent-endpoint
// matcher (a rank that died mid-plan-build leaks half-paired endpoints;
// survivors' endpoints are stale because the new epoch re-pairs from
// scratch — FIFO pairing order only holds if everyone starts empty) and
// resets the abort machinery so the new epoch fails loud on its own terms. Panics if the backend cannot
// rewind (shmem worlds span processes and are not respawnable in-place).
func (w *World) Respawn() {
	if err := w.tr.reset(); err != nil {
		panic(fmt.Sprintf("mpi: Respawn on transport %q: %v", w.tr.name(), err))
	}
	w.rearmAbort()
}

// rearmAbort starts this process's side of a new epoch: it empties the
// persistent-endpoint matcher (the epoch re-pairs from scratch) and resets
// the abort machinery so the epoch fails loud on its own terms. The caller
// must guarantee the world is quiescent.
func (w *World) rearmAbort() {
	w.pairs.reset()
	w.abortVal.Store(nil)
	w.abortOnce = sync.Once{}
	w.abortCh = make(chan struct{})
}
