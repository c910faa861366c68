package mpi

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Recovery (ULFM-style respawn). World.Run is fail-loud: the first panic
// aborts every rank and re-raises in the caller. Recovery inserts one round
// between the abort and the caller, written once here for every transport
// and driven by two supervisors: RunRecoverable for the ranks of this
// process, and the worker supervisor (internal/mpi/proc) for worker
// processes, through AwaitParked/ResumeRound/GiveUpRound. The round:
//
//  1. A rank panics, aborts, or stalls (or its worker process dies and the
//     supervisor calls Kill): every blocked operation unwinds with the
//     *AbortError.
//  2. Each surviving rank parks (ParkForRecovery): it marks itself parked
//     in the round cell and waits for the cell's generation to move.
//     Parked ranks show in every StallReport as `recovery-parked` ops.
//  3. The supervisor converges: every live rank parked, so the world is
//     quiescent by construction — no rank touches the wire.
//  4. It rules: a rank that already completed the epoch cannot be replayed,
//     so any completion forces give-up; otherwise the policy decides.
//  5. It releases the parked ranks with a verdict. On resume the shared
//     wire state is re-seeded (dead ranks' incarnations bump, the restore
//     step is pinned), the backend moves its wire state onto the new epoch
//     (tcp cuts every stream of the process as the round settles or the
//     verdict reaches a worker; chan and shmem keep none), and each world
//     enters the new epoch exactly once: its one-shot and pairing matchers
//     empty and its abort machinery re-arms. On give-up the abort stays
//     published and the parked ranks exit.
//
// A backend supplies only the round cell: where the parked marks, the
// generation and the verdict live, and how a parked rank waits for the
// generation to move (chan: memory; shmem: segment words; tcp: the
// coordinator's parked set and tfPark/tfVerdict frames).
type roundCell interface {
	// parked lists the parked ranks, ascending (nil where the world cannot
	// see them: a tcp worker).
	parked() []int
	// await marks rank parked at the recovery barrier, blocks it until the
	// generation moves past gen and returns the verdict published with it;
	// ok is false when no verdict can arrive (a tcp worker's control link
	// is gone).
	await(rank int, gen uint64) (v verdict, ok bool)
	// settle clears the parked marks and, on resume, re-seeds the shared
	// round state — dead ranks' incarnations bump, the restore step is
	// pinned — and returns the next generation's verdict, not yet visible
	// to parked ranks.
	settle(resume bool, dead []int, step int) verdict
	// release publishes v: parked ranks wake.
	release(v verdict)
	// publishedAbort reads the world-wide abort, adopting a peer
	// process's into this world first (nil while none).
	publishedAbort() *AbortError
}

// verdict is a released round: its generation, whether the world resumes,
// the checkpoint step the resumed epoch restores from (-1 for none), and
// every rank's incarnation in it (nil: all 0).
type verdict struct {
	gen    uint64
	resume bool
	step   int
	incs   []uint64
}

// RunRecoverable is Run with a recovery policy. body runs once per rank per
// epoch and must be re-entrant: on recovery it is invoked again for every
// rank and must rebuild its communication plans from scratch (the new
// epoch emptied the persistent-endpoint matcher). onRecover is called once
// per world-wide abort, with the *AbortError and the 1-based attempt
// number, while every rank is parked and the world is quiescent — it may
// pick a checkpoint, log, and decide: retry to respawn, naming the
// checkpoint step the new epoch restores from (-1 for none; ranks read it
// with RestoreStep), or give up. On give-up (and on a nil onRecover, which
// degenerates to Run) the *AbortError re-raises in the caller exactly as
// Run would.
//
// RunRecoverable is the in-process supervisor of the recovery round: its
// ranks park with ParkForRecovery and it converges, resumes and gives up
// with AwaitParked, ResumeRound and GiveUpRound, as the worker supervisor
// does.
func (w *World) RunRecoverable(body func(*Comm), onRecover func(ae *AbortError, attempt int) (restoreStep int, retry bool)) {
	if onRecover == nil {
		w.Run(body)
		return
	}
	// A trailing barrier separates "my body returned" from "the epoch
	// succeeded": without it a rank could finish and exit while a peer
	// panics mid-step, leaving the round short one participant.
	epoch := func(c *Comm) {
		body(c)
		c.Barrier()
	}
	stopWatchdog := w.startWatchdog()
	exited := make([]atomic.Bool, w.size)
	var wg sync.WaitGroup
	for r := range w.size {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer exited[r].Store(true)
			c := w.newComm(r)
			for !w.runRank(c, epoch) {
				if !w.ParkForRecovery(r) {
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	live := func() (out []int) {
		for r := range exited {
			if !exited[r].Load() {
				out = append(out, r)
			}
		}
		return out
	}
	for attempt := 1; ; attempt++ {
		select {
		case <-done:
			stopWatchdog()
			if ae := w.Aborted(); ae != nil {
				panic(ae)
			}
			return
		case <-w.abortCh:
		}
		// Converge on the ranks that have not exited: one finishing its
		// closing barrier as the abort lands leaves the wanted set, and
		// forces give-up like any rank that cannot be replayed.
		for w.AwaitParked(live(), time.Now().Add(time.Millisecond)) != nil {
		}
		stopWatchdog()
		ae := w.Aborted()
		step, retry := -1, false
		if len(live()) == w.size {
			step, retry = onRecover(ae, attempt)
		}
		if !retry {
			w.GiveUpRound()
			<-done
			panic(ae)
		}
		w.ResumeRound(nil, step)
		stopWatchdog = w.startWatchdog()
	}
}

// ParkForRecovery parks the calling rank at the recovery barrier until the
// supervisor rules on the abort. resume=true means the world was respawned:
// the caller must re-enter its rank body, restoring from the checkpoint
// step RestoreStep names (-1 when no checkpoint exists and the epoch
// restarts from scratch). resume=false means recovery was refused or the
// budget is exhausted; the caller reports its failure and exits.
func (w *World) ParkForRecovery(rank int) (resume bool) {
	// The generation is read before the mark is published: the supervisor
	// releases only after seeing this rank parked, so the round it ends is
	// never one this rank missed.
	w.roundMu.Lock()
	gen := w.epoch.gen
	w.roundMu.Unlock()
	// The park is progress, not a stall: without this tick a slow peer's
	// unwind could push the quiet period past the watchdog timeout.
	w.progressTick()
	v, ok := w.tr.await(rank, gen)
	if !ok || !v.resume {
		return false
	}
	w.roundMu.Lock()
	w.enterEpoch(v)
	w.roundMu.Unlock()
	return true
}

// AwaitParked blocks until every rank in want is parked at the recovery
// barrier or the deadline passes; it reports the ranks still missing (nil
// on success). The supervisor's convergence wait.
func (w *World) AwaitParked(want []int, deadline time.Time) (missing []int) {
	var sp spinner
	for {
		parked := w.tr.parked()
		missing = missing[:0]
		for _, r := range want {
			if !slices.Contains(parked, r) {
				missing = append(missing, r)
			}
		}
		if len(missing) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return missing
		}
		sp.spin()
	}
}

// ResumeRound ends the current recovery round with a retry verdict: dead
// ranks' incarnations bump, the new epoch restores from checkpoint step
// restoreStep (-1 for none), this world enters the new epoch, and every
// parked rank is released into it. The caller (the supervisor, with
// convergence established) then respawns the dead ranks' processes.
// ResumeRound(nil, -1) re-arms a quiescent aborted world — every rank
// goroutine and worker exited or parked, watchdog stopped — for a new epoch.
func (w *World) ResumeRound(dead []int, restoreStep int) {
	// The epoch is entered before the verdict is out, under roundMu so a
	// late abort of the dead epoch can neither race the re-arm nor kill the
	// new epoch; parked ranks of this world then skip their entry.
	w.roundMu.Lock()
	v := w.tr.settle(true, dead, restoreStep)
	w.enterEpoch(v)
	w.roundMu.Unlock()
	w.tr.release(v)
}

// GiveUpRound ends the current recovery round with a give-up verdict:
// parked ranks wake, observe the verdict, and exit. The published abort
// stays readable.
func (w *World) GiveUpRound() {
	w.tr.release(w.tr.settle(false, nil, -1))
}

// enterEpoch moves this world into the epoch verdict v opens, once: the
// supervisor enters before it releases the round, and its own parked ranks
// then find the epoch entered. The one-shot matchers and the
// persistent-endpoint matcher empty (the epoch re-pairs from scratch), and
// the abort machinery re-arms so the epoch fails loud on its own terms. The
// caller holds roundMu.
func (w *World) enterEpoch(v verdict) {
	if v.gen <= w.epoch.gen {
		return
	}
	w.epoch = v
	w.resetMatchers()
	w.pairs.reset()
	w.abortVal.Store(nil)
	w.abortOnce = sync.Once{}
	w.abortCh = make(chan struct{})
}

// RestoreStep reads the checkpoint step the current epoch restores from
// (-1 when none): the step RunRecoverable's policy or the worker
// supervisor named when it resumed the world. A respawned worker, which
// never parked, reads it here after attach.
func (w *World) RestoreStep() int {
	w.roundMu.Lock()
	defer w.roundMu.Unlock()
	return w.epoch.step
}

// Incarnation reads rank's incarnation in the epoch this world is in: 0
// for a first life, bumped once per crash-respawn round.
func (w *World) Incarnation(rank int) uint64 {
	w.roundMu.Lock()
	defer w.roundMu.Unlock()
	if w.epoch.incs == nil {
		return 0
	}
	return w.epoch.incs[rank]
}

// PublishedAbort reads the world-wide abort: the supervisor uses it to
// report why a worker-process world died even when the local process never
// ran a rank. ok is false while no abort is published.
func (w *World) PublishedAbort() (rank int, msg string, ok bool) {
	if ae := w.tr.publishedAbort(); ae != nil {
		return ae.Rank, ae.Error(), true
	}
	return 0, "", false
}

// CanSuperviseWorkers reports whether worker processes can attach to this
// world: it carries a spawn contract (a segment file to inherit, or a
// coordinator address in the environment).
func (w *World) CanSuperviseWorkers() bool {
	return w.WorkerSpawnEnv() != nil || w.WorkerSpawnFiles() != nil
}
