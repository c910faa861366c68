package harness

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"

	"github.com/bricklab/brick/internal/ckpt"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// ckptState is the checkpoint/restore machinery of one rank body under
// Config.Checkpoint, the same on every transport: an in-process run
// shares one across its rank goroutines, a worker process holds one for
// its rank. It owns the checkpoint cadence, the epoch directory, and the
// pre-failure plan digests that respawned ranks must reproduce.
//
// Checkpoints commit on disk (ckpt.Spill per rank, rank 0 writing the
// manifest behind a barrier, then pruning the older epochs); restore loads
// the epoch the recovery policy picked, which the world publishes as its
// RestoreStep (-1 for none).
type ckptState struct {
	every int // absolute-step checkpoint period
	impl  Impl
	reg   *metrics.Registry
	fr    *flight.Recorder
	dir   string
	ranks int
	w     *mpi.World

	mu      sync.Mutex
	digests map[int]string // rank -> plan digest of the first build
}

func newCkptState(cfg Config, w *mpi.World) *ckptState {
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 2
	}
	return &ckptState{
		every:   every,
		impl:    cfg.Impl,
		reg:     cfg.Metrics,
		fr:      cfg.FlightRec,
		dir:     cfg.CheckpointDir,
		ranks:   cfg.ranks(),
		w:       w,
		digests: map[int]string{},
	}
}

// latest returns rank's snapshot to restore from, or nil to start from
// scratch. It loads (and CRC-verifies) the epoch the world restores from;
// an unreadable epoch is an error, not a silent fresh start, because the
// recovery policy already verified it when scanning.
func (ck *ckptState) latest(rank int) (*ckpt.Snapshot, error) {
	step := ck.w.RestoreStep()
	if step < 0 {
		return nil, nil
	}
	return ckpt.Load(ck.dir, step, rank)
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
// each rank's capture and spill, a barrier ordering every spill before
// rank 0's manifest — the epoch's commit record — and rank 0 pruning the
// epochs older than the one it just committed. A crash anywhere before the
// manifest leaves a partial epoch that ckpt.ScanDir skips, and the previous
// committed epoch is still on disk. The second barrier also keeps a rank
// from racing ahead and mutating storage another rank is still encoding.
// Across the barriers no exchange is in flight: every schedule starts and
// completes each exchange inside one step, and every rank is here between
// steps, so no transfer reads or writes the storage a capture copies, and
// a replay from the restored storage sends the same bytes.
// Both barriers tick the watchdog progress counter, so a slow checkpoint
// is progress, not a stall.
func (ck *ckptState) checkpoint(comm *mpi.Comm, rank, step int, capture func() *ckpt.Snapshot) {
	comm.Barrier()
	ck.fr.Rank(rank).Record(flight.KindCkpt, -1, -1, -1, 0, 0)
	snap := capture()
	if err := ckpt.Spill(ck.dir, snap); err != nil {
		comm.Abort(err)
	}
	if ck.reg != nil {
		ck.reg.Counter(metrics.CkptBytesTotal, metrics.Labels{
			"impl": ck.impl.String(), "rank": strconv.Itoa(rank)}).Add(snap.Bytes())
	}
	comm.Barrier()
	if rank != 0 {
		return
	}
	if err := ckpt.WriteManifest(ck.dir, step, ck.ranks); err != nil {
		comm.Abort(err)
	}
	if ck.reg != nil {
		ck.reg.Counter(metrics.CkptEpochsTotal, metrics.Labels{"impl": ck.impl.String()}).Add(1)
	}
	if err := ckpt.RemoveEpochs(ck.dir, step); err != nil {
		comm.Abort(err)
	}
}

// checkpointDir resolves the epoch directory of a checkpointing run: the
// caller's, cleared of the epochs an earlier run (possibly a different
// world or domain) left there so they can never be restored into this
// one, or a private directory that done removes when the run returns.
func checkpointDir(dir string) (resolved string, done func(), err error) {
	if dir == "" {
		if dir, err = os.MkdirTemp("", "brick-ckpt-*"); err != nil {
			return "", nil, fmt.Errorf("harness: checkpoint dir: %w", err)
		}
		return dir, func() { os.RemoveAll(dir) }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, fmt.Errorf("harness: checkpoint dir: %w", err)
	}
	if err := ckpt.RemoveEpochs(dir, math.MaxInt); err != nil {
		return "", nil, fmt.Errorf("harness: clearing stale epochs: %w", err)
	}
	return dir, func() {}, nil
}

// recoveryPolicy is the one recovery policy of both supervisors — the
// in-process run's onRecover and the worker supervisor's Recover call
// decide once per world failure, while every rank is parked. It spends a
// budget of MaxRecoveries (<= 0 defaults to 3) and picks the newest
// complete epoch on disk as the restore step.
type recoveryPolicy struct {
	cfg       Config
	budget    int
	recovered int
	exhausted bool
}

func newRecoveryPolicy(cfg Config) *recoveryPolicy {
	budget := cfg.MaxRecoveries
	if budget <= 0 {
		budget = 3
	}
	return &recoveryPolicy{cfg: cfg, budget: budget}
}

// decide rules on one world failure attributed to rank (-1 when no rank
// is known: a watchdog stall, or a soft abort seen by the worker
// supervisor). It books the verdict in recovery_total and, on retry, marks
// the recovery on the failed rank's flight ring and returns the step to
// restore from.
func (p *recoveryPolicy) decide(rank int) (restoreStep int, retry bool) {
	retry = p.recovered < p.budget
	outcome := "recovered"
	if !retry {
		outcome = "budget-exhausted"
	}
	if p.cfg.Metrics != nil {
		p.cfg.Metrics.Counter(metrics.RecoveryTotal, metrics.Labels{
			"rank": strconv.Itoa(rank), "outcome": outcome}).Add(1)
	}
	if !retry {
		p.exhausted = true
		return -1, false
	}
	// Rank maps -1 to a nil no-op ring.
	p.cfg.FlightRec.Rank(rank).Record(flight.KindRecovery, -1, -1, -1, 0, 0)
	step, err := ckpt.ScanDir(p.cfg.CheckpointDir, p.cfg.ranks())
	if err != nil {
		// Replay from scratch rather than give up: determinism makes a
		// zero-step replay correct, just slower.
		fmt.Fprintf(os.Stderr, "harness: checkpoint scan failed (%v); replaying from scratch\n", err)
		step = -1
	}
	p.recovered++
	return step, true
}

// wrap returns the run's failure, wrapped in the budget error once the
// budget ran out.
func (p *recoveryPolicy) wrap(err error) error {
	if p.exhausted {
		return fmt.Errorf("harness: recovery budget exhausted after %d recoveries: %w", p.budget, err)
	}
	return err
}
