package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/coverage"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/ckpt"
	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/mpi/proc"
)

// runSupervised is Run's cross-process driver: it builds the world (shmem
// or tcp),
// spawns one worker process per rank (the worker binary is this executable
// re-entered through WorkerMain), and aggregates the rank results their
// envelopes carry. Worker failures — including world aborts — come back as
// errors wrapping mpi.ErrAborted, mirroring the in-process AbortError path.
//
// With Config.Checkpoint set the supervisor arms cross-process recovery:
// a hard worker death (SIGKILL, OOM, nonzero exit) or a soft world abort
// triggers a recovery round in which the supervisor quarantines the
// segment, respawns the dead ranks, and directs the world to replay from
// the newest complete disk-spilled checkpoint epoch — until the run
// completes or MaxRecoveries is exhausted, at which point the original
// failure surfaces wrapped in the budget error, exactly like the
// in-process driver's.
func runSupervised(cfg Config) (Result, error) {
	n := cfg.ranks()
	w, err := mpi.NewWorldOn(cfg.transportName(), n)
	if err != nil {
		return Result{}, err
	}
	defer w.Close()
	if !w.CanSuperviseWorkers() {
		return Result{}, fmt.Errorf("harness: transport %q cannot host cross-process workers (needs a shmem segment or a tcp coordinator)", cfg.transportName())
	}
	// The worker spec is the Config itself with the transport resolved. The
	// live in-process objects (Metrics, FlightRec) never ride the wire:
	// JSON skips them, and Validate already requires them nil here.
	spec := cfg
	spec.Transport = cfg.transportName()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return Result{}, fmt.Errorf("harness: encoding worker spec: %w", err)
	}
	var opts proc.Options
	budget := cfg.MaxRecoveries
	if budget <= 0 {
		budget = 3
	}
	exhausted := false
	recovered := 0
	if cfg.Checkpoint {
		// Stale epochs from an earlier run (possibly a different world or
		// domain) must not be restored into this one.
		if err := wipeEpochs(cfg.CheckpointDir); err != nil {
			return Result{}, err
		}
		perRankRecoveries := map[int]int{}
		total := 0
		opts.Recover = func(attempt int, death *proc.Death, abortMsg string) (restoreStep int, retry bool) {
			retry = total < budget
			total++
			if !retry {
				exhausted = true
				return -1, false
			}
			// Backoff keyed per rank, like the in-process driver; a soft
			// abort with no death books under the abort's publisher slot -1.
			r := -1
			if death != nil {
				r = death.Rank
			}
			k := perRankRecoveries[r] + 1
			perRankRecoveries[r] = k
			if d := recoveryBackoff(cfg.RecoveryBackoff, k); d > 0 {
				time.Sleep(d)
			}
			step, serr := ckpt.ScanDir(cfg.CheckpointDir, n)
			if serr != nil {
				// Replay from scratch rather than give up: determinism makes a
				// zero-step replay correct, just slower.
				fmt.Fprintf(os.Stderr, "harness: checkpoint scan failed (%v); replaying from scratch\n", serr)
				step = -1
			}
			recovered++
			return step, true
		}
	}
	envs, err := proc.Run(w, specJSON, opts)
	if err != nil {
		if exhausted {
			return Result{}, fmt.Errorf("harness: recovery budget exhausted after %d recoveries: %w", budget, err)
		}
		return Result{}, err
	}
	perRank := make([]Result, n)
	for _, e := range envs {
		if e.Err != "" {
			return Result{}, fmt.Errorf("%w: rank %d worker: %s", mpi.ErrAborted, e.Rank, e.Err)
		}
		if err := json.Unmarshal(e.Result, &perRank[e.Rank]); err != nil {
			return Result{}, fmt.Errorf("harness: decoding rank %d result: %w", e.Rank, err)
		}
		// The worker stripped its Config copy from the envelope; restore the
		// supervisor's, as the in-process runners would have recorded it.
		perRank[e.Rank].Config = cfg
	}
	res := aggregate(cfg, perRank)
	res.Recoveries = recovered
	return res, nil
}

// wipeEpochs clears epoch directories left under dir by earlier runs, so
// a recovery of this run can never restore a stale world's snapshots.
func wipeEpochs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: checkpoint dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("harness: checkpoint dir: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "epoch") {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("harness: clearing stale epoch %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// coverFlush writes this worker process's coverage counters before exit.
// Workers leave through os.Exit, which skips the testing package's normal
// coverage teardown; when the binary is built with -cover and GOCOVERDIR
// is set, flushing here keeps worker-side code in the merged profile.
// Best-effort by design: on an uninstrumented binary both writes fail,
// and a worker killed by SIGKILL never gets here at all.
func coverFlush() {
	dir := os.Getenv("GOCOVERDIR")
	if dir == "" {
		return
	}
	_ = coverage.WriteMetaDir(dir)
	_ = coverage.WriteCountersDir(dir)
}

// WorkerMain is the worker-process entrypoint of cross-process runs. Every
// binary that may act as a rank worker — cmd/brickworker, the experiment
// drivers, test binaries whose TestMain includes it — calls it first thing
// in main: in a normal process it detects nothing and returns immediately;
// in a spawned worker (proc.IsWorker) it attaches the inherited segment,
// runs its one rank, reports the result envelope, and exits.
//
// A worker that gets as far as running its rank always exits 0 and carries
// failures (world aborts included) inside the envelope; only a broken
// contract — unreadable spec, unmappable segment — exits nonzero, which
// the supervisor treats as a hard death.
//
// Under Config.Checkpoint the worker is an epoch loop: a world abort parks
// the rank at the cross-process recovery barrier instead of ending the
// run, and a resume verdict re-enters the rank body restoring from the
// supervisor-pinned checkpoint step. A respawned worker (nonzero
// incarnation) reads its restore step straight from the segment and skips
// the process-fault clauses its previous lives already died to.
func WorkerMain() {
	if !proc.IsWorker() {
		return
	}
	wk, w, err := proc.Attach()
	if err != nil {
		fmt.Fprintf(os.Stderr, "brick worker: %v\n", err)
		os.Exit(1)
	}
	defer w.Close()
	var cfg Config
	if err := json.Unmarshal(wk.Spec, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "brick worker: decoding spec: %v\n", err)
		os.Exit(1)
	}
	inj, err := fault.Parse(cfg.Fault, cfg.FaultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "brick worker: %v\n", err)
		os.Exit(1)
	}
	cfg.inj = inj
	if cfg.Flight {
		// Each worker records and dumps its own rank's ring: artifacts land
		// next to the configured path with a .rank<N> suffix so the ranks of
		// one failed run do not clobber each other.
		if cfg.FlightOut == "" {
			cfg.FlightOut = "brick-flight.bin"
		}
		cfg.FlightOut = fmt.Sprintf("%s.rank%d", cfg.FlightOut, wk.Rank)
	}
	cfg.resolveFlight()
	if wk.Incarnation > 0 {
		// Each previous life of this rank died to exactly one fired kill or
		// exit clause; skip that many matches so the respawn makes progress
		// past the crash site instead of re-dying there forever.
		cfg.inj.SkipProcessFaults(wk.Rank, int(wk.Incarnation))
	}
	w.SetFault(cfg.inj)
	w.SetWatchdog(cfg.Watchdog, nil)
	w.SetVerifyCRC(cfg.VerifyCRC)
	w.SetFlight(cfg.FlightRec)

	perRank := make([]Result, cfg.ranks())
	var runErr error
	runEpoch := func() {
		defer func() {
			if p := recover(); p != nil {
				ae, ok := p.(*mpi.AbortError)
				if !ok {
					panic(p)
				}
				flightDump(cfg, ae, "")
				runErr = ae
			}
		}()
		runErr = nil
		w.RunRank(wk.Rank, rankBody(cfg, perRank))
	}
	if cfg.Checkpoint {
		// First lives read -1 here; a respawned worker reads the step the
		// supervisor pinned when it quarantined the segment.
		cfg.ck = newWorkerCkptState(cfg, w.RestoreStep())
	}
	for {
		runEpoch()
		if runErr == nil || !cfg.Checkpoint {
			break
		}
		// Park at the cross-process recovery barrier; the supervisor's
		// verdict either re-enters the body from the pinned step or releases
		// us to report the abort below.
		resume, restoreStep := w.ParkForRecovery(wk.Rank)
		if !resume {
			break
		}
		cfg.ck = newWorkerCkptState(cfg, restoreStep)
	}
	var payload any
	if runErr == nil {
		r := perRank[wk.Rank]
		// The Config copy carries live pointers (the worker's own flight
		// recorder) that must not ride the wire; the supervisor restores its
		// own Config on the decoded result.
		r.Config = Config{}
		payload = r
	}
	if err := wk.Report(payload, runErr); err != nil {
		fmt.Fprintf(os.Stderr, "brick worker: reporting result: %v\n", err)
		coverFlush()
		os.Exit(1)
	}
	coverFlush()
	os.Exit(0)
}
