package harness

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/ckpt"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// ckptState is the checkpoint/restore machinery shared by the runners and
// the recovery driver for one recoverable run. It owns the epoch store,
// the checkpoint cadence, and the pre-failure plan digests that respawned
// ranks must reproduce.
//
// It has two modes. In-process (chan transport): store is the world-wide
// epoch store, every rank of the run deposits into it, and restore reads
// store.Latest. Worker (shmem transport): store is nil — the process runs
// one rank and cannot hold a world-wide epoch — and checkpoints go
// straight to disk (ckpt.Spill per rank, rank 0 writing the manifest
// behind a barrier); restore loads the epoch the supervisor pinned at the
// recovery round (restoreStep, -1 for none).
type ckptState struct {
	store *ckpt.Store
	every int // absolute-step checkpoint period
	impl  Impl
	reg   *metrics.Registry
	fr    *flight.Recorder

	// Worker (disk) mode: the spill directory, the world size for the
	// manifest, and the restore step the supervisor published for this
	// epoch (-1: restart from scratch).
	dir         string
	ranks       int
	restoreStep int

	mu      sync.Mutex
	digests map[int]string // rank -> plan digest of the first build
}

func newCkptState(cfg Config) *ckptState {
	return &ckptState{
		store:       ckpt.NewStore(cfg.ranks(), cfg.CheckpointDir),
		every:       ckptEvery(cfg),
		impl:        cfg.Impl,
		reg:         cfg.Metrics,
		fr:          cfg.FlightRec,
		ranks:       cfg.ranks(),
		restoreStep: -1,
		digests:     map[int]string{},
	}
}

// newWorkerCkptState builds the disk-mode state for one worker process's
// epoch. restoreStep is the checkpoint step the supervisor pinned for this
// epoch: -1 on a first run, the ckpt.ScanDir verdict after a recovery.
func newWorkerCkptState(cfg Config, restoreStep int) *ckptState {
	return &ckptState{
		every:       ckptEvery(cfg),
		impl:        cfg.Impl,
		fr:          cfg.FlightRec,
		dir:         cfg.CheckpointDir,
		ranks:       cfg.ranks(),
		restoreStep: restoreStep,
		digests:     map[int]string{},
	}
}

func ckptEvery(cfg Config) int {
	if cfg.CheckpointEvery > 0 {
		return cfg.CheckpointEvery
	}
	return 2
}

// latest returns rank's snapshot to restore from, or nil to start from
// scratch. In-process mode serves the store's newest complete epoch;
// worker mode loads (and CRC-verifies) the supervisor-pinned epoch from
// disk — an unreadable pinned epoch is an error, not a silent fresh start,
// because the supervisor already verified it when scanning.
func (ck *ckptState) latest(rank int) (*ckpt.Snapshot, error) {
	if ck.store != nil {
		return ck.store.Latest(rank), nil
	}
	if ck.restoreStep < 0 {
		return nil, nil
	}
	return ckpt.Load(ck.dir, ck.restoreStep, rank)
}

// noteDigest records rank's compiled plan digest on the first build and,
// on every later build (i.e. after a respawn), asserts the re-paired plan
// is identical. A digest mismatch means the rebuilt world compiled a
// different communication pattern — replay from a snapshot taken under the
// old plan would silently diverge, so it fails loud instead.
func (ck *ckptState) noteDigest(rank int, digest string) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	prev, ok := ck.digests[rank]
	if !ok {
		ck.digests[rank] = digest
		return nil
	}
	if prev != digest {
		return fmt.Errorf("harness: rank %d re-paired plan digest %s differs from pre-failure digest %s: replay would diverge",
			rank, digest, prev)
	}
	return nil
}

// checkpoint runs one world-coordinated snapshot round: a quiesce barrier,
// the capture and deposit, and a closing barrier so no rank races ahead and
// mutates storage another rank is still encoding. Across the barrier
// nothing is delivered into a rank's storage: delivery needs the rank to
// start its receives, and every rank is here between steps with its
// receives completed. The pipelined brick schedule does have the next
// exchange's sends armed and released across it, but they only read
// surface bricks, which capture copies unchanged, and a replay re-arms
// them from the restored storage, so the bytes sent are the same. Both
// barriers tick the watchdog progress counter, so a slow checkpoint is
// progress, not a stall.
func (ck *ckptState) checkpoint(comm *mpi.Comm, rank, step int, capture func() *ckpt.Snapshot) {
	comm.Barrier()
	ck.fr.Rank(rank).Record(flight.KindCkpt, -1, -1, -1, 0, 0)
	snap := capture()
	if ck.store == nil {
		// Worker (disk) mode: each rank spills its own snapshot; the closing
		// barrier orders every spill before rank 0's manifest, the epoch's
		// commit record. A crash anywhere in between leaves a manifest-less
		// partial epoch that ScanDir skips.
		if err := ckpt.Spill(ck.dir, snap); err != nil {
			comm.Abort(err)
		}
		comm.Barrier()
		if rank == 0 {
			if err := ckpt.WriteManifest(ck.dir, step, ck.ranks); err != nil {
				comm.Abort(err)
			}
		}
		return
	}
	committed, err := ck.store.Put(snap)
	if err != nil {
		comm.Abort(err)
	}
	if ck.reg != nil {
		ck.reg.Counter(metrics.CkptBytesTotal, metrics.Labels{
			"impl": ck.impl.String(), "rank": strconv.Itoa(rank)}).Add(snap.Bytes())
		if committed {
			ck.reg.Counter(metrics.CkptEpochsTotal, metrics.Labels{"impl": ck.impl.String()}).Add(1)
		}
	}
	comm.Barrier()
}

// recoveryBackoff returns how long to wait before the k-th recovery of a
// rank: nothing for the first, then base, 2*base, 4*base, ... capped at
// base<<10 so a misconfigured base cannot park the run for hours.
func recoveryBackoff(base time.Duration, k int) time.Duration {
	if base <= 0 || k <= 1 {
		return 0
	}
	shift := k - 2
	if shift > 10 {
		shift = 10
	}
	return base << uint(shift)
}

// runRecoverable is the fail-over driver behind Config.Checkpoint: it runs
// the same rank bodies as Run, but under mpi.World.RunRecoverable, so a
// world abort — injected panic, detected corruption, stall — rewinds the
// world to the last complete checkpoint epoch instead of killing the run.
// Each recovery drops any half-deposited epoch, backs off exponentially for
// repeat offenders, respawns every rank, and replays from the snapshot;
// once MaxRecoveries is exhausted the original abort chain is re-raised
// wrapped in a budget error.
func runRecoverable(cfg Config) (res Result, err error) {
	budget := cfg.MaxRecoveries
	if budget <= 0 {
		budget = 3
	}
	ck := newCkptState(cfg)
	cfg.ck = ck
	n := cfg.ranks()
	perRank := make([]Result, n)
	w, detach := setupWorld(cfg)
	defer detach()

	perRankRecoveries := map[int]int{}
	total, recovered := 0, 0
	var exhausted *mpi.AbortError
	onRecover := func(ae *mpi.AbortError, _ int) bool {
		retry := total < budget
		total++
		outcome := "recovered"
		if !retry {
			outcome = "budget-exhausted"
		}
		if cfg.Metrics != nil {
			cfg.Metrics.Counter(metrics.RecoveryTotal, metrics.Labels{
				"rank": strconv.Itoa(ae.Rank), "outcome": outcome}).Add(1)
		}
		if !retry {
			exhausted = ae
			return false
		}
		// Mark the recovery epoch on the failed rank's ring (watchdog aborts
		// carry rank -1, which Rank maps to a nil no-op ring).
		cfg.FlightRec.Rank(ae.Rank).Record(flight.KindRecovery, -1, -1, -1, 0, 0)
		// A failure mid-checkpoint leaves a partial epoch nobody will
		// finish; replay re-deposits that step from scratch.
		ck.store.Drop()
		k := perRankRecoveries[ae.Rank] + 1
		perRankRecoveries[ae.Rank] = k
		if d := recoveryBackoff(cfg.RecoveryBackoff, k); d > 0 {
			time.Sleep(d)
		}
		recovered++
		return true
	}

	defer func() {
		if p := recover(); p != nil {
			ae, ok := p.(*mpi.AbortError)
			if !ok {
				panic(p)
			}
			if ae == exhausted {
				flightDump(cfg, ae, "recovery-budget")
				err = fmt.Errorf("harness: recovery budget exhausted after %d recoveries: %w", budget, ae)
			} else {
				flightDump(cfg, ae, "")
				err = ae
			}
			res = Result{}
		}
	}()
	w.RunRecoverable(rankBody(cfg, perRank), onRecover)
	res = aggregate(cfg, perRank)
	res.Recoveries = recovered
	return res, nil
}
