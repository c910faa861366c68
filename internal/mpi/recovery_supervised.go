package mpi

import (
	"fmt"
	"os"
	"time"
)

// The supervised-recovery seam: the cross-process recovery protocol that
// PR 9 built against the shmem segment, lifted to a transport capability so
// the proc supervisor and the worker harness drive shmem and tcp worlds
// through one API. A transport that can host worker processes implements
// supervisedTransport; the World wrappers below gate on it the way the
// Shmem* methods gate on the segment.
//
// The round protocol is unchanged: a worker dies or an abort is published;
// survivors park (ParkForRecovery); the supervisor converges (AwaitParked),
// rules, and either resumes (ResumeRound: quarantine/epoch-bump, dead
// incarnations bump, restore step pinned, parked workers released) or gives
// up (GiveUpRound: workers wake, report the standing abort, and exit).
type supervisedTransport interface {
	// canSupervise reports whether worker processes can attach to this
	// world (shmem: the arena is file-backed; tcp: this process runs the
	// coordinator).
	canSupervise() bool
	// spawnEnv returns environment entries a worker process needs to
	// attach (nil when the transport attaches by inherited fd instead).
	spawnEnv() []string
	// spawnFiles returns files the worker must inherit, in ExtraFiles
	// order starting at fd 3 (nil when attachment is by environment).
	spawnFiles() []*os.File
	// incarnationOf reads rank's life number: 0 first spawn, bumped per
	// crash-respawn cycle.
	incarnationOf(rank int) uint64
	// publishedAbort reads the world-wide published abort cause, if any.
	publishedAbort() (rank int, msg string, ok bool)
	// parkForRecovery parks the calling worker's rank at the recovery
	// barrier until the supervisor's verdict.
	parkForRecovery(rank int) (resume bool, restoreStep int)
	// awaitParked blocks until every rank in want parked or the deadline
	// passes, reporting the ranks still missing (nil on success).
	awaitParked(want []int, deadline time.Time) (missing []int)
	// resumeRound ends the round with a retry verdict (supervisor side).
	resumeRound(dead []int, restoreStep int)
	// giveUpRound ends the round with a give-up verdict (supervisor side).
	giveUpRound()
	// restoreStep reads the checkpoint step the current epoch restores
	// from (-1 when none).
	restoreStep() int
}

// sup returns the world's supervised transport, or panics: the worker
// recovery API is meaningful only on transports that host workers.
func (w *World) sup(op string) supervisedTransport {
	t, ok := w.tr.(supervisedTransport)
	if !ok {
		panic(fmt.Sprintf("mpi: %s on transport %q (supervised transports only)", op, w.tr.name()))
	}
	return t
}

// CanSuperviseWorkers reports whether this world can host worker processes:
// its transport implements the supervised-recovery protocol and the
// cross-process channel (segment file, coordinator socket) actually exists.
func (w *World) CanSuperviseWorkers() bool {
	t, ok := w.tr.(supervisedTransport)
	return ok && t.canSupervise()
}

// WorkerSpawnEnv returns environment entries a spawned worker needs to
// attach to this world (nil for fd-inherited transports like shmem).
func (w *World) WorkerSpawnEnv() []string {
	return w.sup("WorkerSpawnEnv").spawnEnv()
}

// WorkerSpawnFiles returns files a spawned worker must inherit, in
// os/exec ExtraFiles order starting at fd 3 (nil for environment-attached
// transports like tcp).
func (w *World) WorkerSpawnFiles() []*os.File {
	return w.sup("WorkerSpawnFiles").spawnFiles()
}

// Incarnation reads rank's incarnation: 0 for a first life, bumped once
// per crash-respawn cycle.
func (w *World) Incarnation(rank int) uint64 {
	return w.sup("Incarnation").incarnationOf(rank)
}

// PublishedAbort reads the world-wide published abort cause: the
// supervisor uses it to report why a worker-process world died even when
// the local process never ran a rank. ok is false while no abort is
// published or the transport does not supervise workers.
func (w *World) PublishedAbort() (rank int, msg string, ok bool) {
	t, isSup := w.tr.(supervisedTransport)
	if !isSup {
		return 0, "", false
	}
	return t.publishedAbort()
}

// ParkForRecovery parks the calling worker's rank at the recovery barrier
// until the supervisor rules on the abort. resume=true means the world was
// respawned: the caller must re-enter its rank body, restoring from
// checkpoint step restoreStep (-1 when no checkpoint exists and the epoch
// restarts from scratch). resume=false means recovery was refused or the
// budget is exhausted; the caller reports its failure and exits.
func (w *World) ParkForRecovery(rank int) (resume bool, restoreStep int) {
	return w.sup("ParkForRecovery").parkForRecovery(rank)
}

// AwaitParked blocks until every rank in want is parked at the recovery
// barrier or the deadline passes; it reports the ranks still missing (nil
// on success). The supervisor's convergence wait.
func (w *World) AwaitParked(want []int, deadline time.Time) (missing []int) {
	return w.sup("AwaitParked").awaitParked(want, deadline)
}

// ResumeRound ends the current recovery round with a retry verdict: dead
// ranks' incarnations bump, the new epoch restores from checkpoint step
// restoreStep (-1 for none), the local abort machinery re-arms, and every
// parked worker is released into its next epoch. The caller (the
// supervisor, with convergence established) then respawns the dead ranks'
// processes.
func (w *World) ResumeRound(dead []int, restoreStep int) {
	w.sup("ResumeRound").resumeRound(dead, restoreStep)
}

// GiveUpRound ends the current recovery round with a give-up verdict:
// parked workers wake, observe the verdict, and exit through their result
// envelopes. The published abort stays readable.
func (w *World) GiveUpRound() {
	w.sup("GiveUpRound").giveUpRound()
}

// RestoreStep reads the checkpoint step the current epoch restores from
// (-1 when none). Survivors learn it from ParkForRecovery's return; a
// respawned worker, which never parked, reads it here after attach.
func (w *World) RestoreStep() int {
	return w.sup("RestoreStep").restoreStep()
}

// ---- tcp implementation ----

func (t *tcpTransport) canSupervise() bool { return t.coord != nil }

func (t *tcpTransport) spawnEnv() []string {
	return []string{fmt.Sprintf("%s=%s|%d|%d", EnvTCPWorld, t.coordAddr, t.worldID, t.w.size)}
}

func (t *tcpTransport) spawnFiles() []*os.File { return nil }

func (t *tcpTransport) incarnationOf(rank int) uint64 {
	if t.coord != nil {
		return t.coord.incOf(rank)
	}
	return t.node(rank).inc
}

func (t *tcpTransport) publishedAbort() (rank int, msg string, ok bool) {
	if t.coord != nil {
		return t.coord.publishedAbort()
	}
	if ae := t.w.Aborted(); ae != nil {
		return ae.Rank, ae.Error(), true
	}
	return 0, "", false
}

func (t *tcpTransport) parkForRecovery(rank int) (resume bool, restoreStep int) {
	return t.node(rank).parkForRecovery()
}

func (t *tcpTransport) awaitParked(want []int, deadline time.Time) (missing []int) {
	if t.coord == nil {
		return want
	}
	return t.coord.awaitParked(want, deadline)
}

// resumeRound (coordinator side): the epoch bumps before the verdict goes
// out and before any dead rank respawns, so a respawned worker's WELCOME
// already carries the new epoch — its frames are never stale on arrival,
// and stale pre-crash frames of the old epoch never match.
func (t *tcpTransport) resumeRound(dead []int, restoreStep int) {
	if t.coord == nil {
		return
	}
	t.coord.roundMu.Lock()
	ep := t.coord.bumpEpoch(dead, restoreStep)
	for _, n := range t.snapshotNodes() {
		n.resetForEpoch(ep)
	}
	t.w.rearmAbort()
	t.coord.roundMu.Unlock()
	t.coord.broadcastVerdict(true, restoreStep, ep)
}

func (t *tcpTransport) giveUpRound() {
	if t.coord != nil {
		t.coord.giveUp()
	}
}

func (t *tcpTransport) restoreStep() int {
	if t.coord != nil {
		return t.coord.restoreStep()
	}
	for _, n := range t.snapshotNodes() {
		return int(n.restore.Load())
	}
	return -1
}
