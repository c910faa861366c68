package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/coverage"

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
// the step the shared recoveryPolicy picks — until the run completes or
// the budget is spent, at which point the original failure surfaces
// wrapped in the budget error, exactly like an in-process run's. The
// spec carries the epoch directory Run resolved, a private one included.
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
	pol := newRecoveryPolicy(cfg)
	if cfg.Checkpoint {
		opts.Recover = func(_ int, death *proc.Death, _ string) (int, bool) {
			r := -1 // a soft abort names no dead worker
			if death != nil {
				r = death.Rank
			}
			return pol.decide(r)
		}
	}
	envs, err := proc.Run(w, specJSON, opts)
	if err != nil {
		return Result{}, pol.wrap(err)
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
	res.Recoveries = pol.recovered
	return res, nil
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
		// Each epoch restores from the world's RestoreStep: -1 for a first
		// life, the step the supervisor pinned for a respawned worker or a
		// resumed survivor.
		cfg.ck = newCkptState(cfg, w)
	}
	for {
		runEpoch()
		if runErr == nil || !cfg.Checkpoint {
			break
		}
		// Park at the cross-process recovery barrier; the supervisor's
		// verdict either re-enters the body from the pinned step or releases
		// us to report the abort below.
		if resume, _ := w.ParkForRecovery(wk.Rank); !resume {
			break
		}
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
