// Package harness runs the paper's experiments: a periodic Cartesian grid
// of ranks, each owning one subdomain, stepping a stencil with one of the
// evaluated exchange implementations and reporting the artifact's metrics —
// per-timestep calc/pack/call/wait times as [min, avg, max] (σ) summaries
// and overall GStencil/s throughput over the wall-clock step time.
package harness

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// Impl selects an exchange implementation.
type Impl int

// CPU implementations (K experiments) and GPU strategies (V experiments).
const (
	// YASK: lexicographic arrays with explicit pack/unpack, one message per
	// neighbor (the paper's pack-based baseline role; with ExpandGhost off
	// it overlaps the exchange, the paper's YASK-OL).
	YASK Impl = iota
	// MPITypes: lexicographic arrays exchanged with derived datatypes.
	MPITypes
	// Basic: bricks with a lexicographic block order, each region sent
	// separately to each destination (98 messages in 3D).
	Basic
	// Layout: bricks with the optimized surface order (42 messages).
	Layout
	// MemMap: bricks with per-neighbor memory-mapped views (26 messages).
	MemMap
	// Shift: bricks exchanged dimension by dimension through mmap slab
	// views — 6 messages in 3 serialized phases (paper Section 8 related
	// work).
	Shift
	// GPULayoutCA, GPULayoutUM, GPUMemMapUM, GPUTypesUM: the V1 strategies,
	// reported in modeled time.
	GPULayoutCA
	GPULayoutUM
	GPUMemMapUM
	GPUTypesUM
	// GPUStaged: whole-subdomain CPU staging around a packed exchange (the
	// pre-CUDA-Aware manual data movement of the paper's introduction).
	GPUStaged
)

var implNames = [...]string{
	YASK: "YASK", MPITypes: "MPI_Types", Basic: "Basic", Layout: "Layout",
	MemMap: "MemMap", Shift: "Shift", GPULayoutCA: "LayoutCA", GPULayoutUM: "LayoutUM",
	GPUMemMapUM: "MemMapUM", GPUTypesUM: "MPI_TypesUM", GPUStaged: "Staged",
}

func (im Impl) String() string {
	if im >= 0 && int(im) < len(implNames) {
		return implNames[im]
	}
	return fmt.Sprintf("Impl(%d)", int(im))
}

// GPU reports whether the implementation is a V-experiment strategy whose
// times are modeled rather than measured.
func (im Impl) GPU() bool { return im >= GPULayoutCA }

// Brick reports whether the implementation stores data in bricks.
func (im Impl) Brick() bool {
	switch im {
	case Basic, Layout, MemMap, Shift, GPULayoutCA, GPULayoutUM, GPUMemMapUM:
		return true
	}
	return false
}

// Config describes one experiment run.
type Config struct {
	Impl  Impl
	Procs [3]int // rank grid (i,j,k); product = world size
	Dom   [3]int // subdomain elements per rank
	// Transport selects the mpi backend. Empty or "chan" runs every rank as
	// a goroutine of this process (the default). "shmem" and "tcp" run the
	// world across processes: the harness becomes a supervisor that spawns
	// one worker process per rank — over a shared-memory segment or framed
	// loopback TCP streams respectively (see runSupervised and WorkerMain).
	// Cross-process runs reject the
	// observability hooks that cannot span processes — Metrics and a
	// caller-supplied FlightRec — and GPU (modeled) impls. Checkpoint
	// recovery works as on chan: the supervisor respawns crashed workers
	// and every rank restores from the newest committed epoch on disk
	// (see docs/robustness.md).
	Transport string
	Ghost     int // ghost width in elements
	Shape     core.Shape
	Stencil   stencil.Stencil
	Steps     int // timed timesteps
	Warmup    int // untimed timesteps
	// Machine is the host profile: its PageSize is MemMap's padding
	// granularity (the Fig. 18 sweep sets it) and, with its links, the
	// GPU simulator's cost model.
	Machine netmodel.Machine
	// ExpandGhost amortizes exchanges over Ghost/Radius timesteps with
	// redundant computation (ghost-cell expansion), each exchange completing
	// before the step computes. Off, every step exchanges and, for every
	// implementation but Shift, overlaps the exchange with computation.
	ExpandGhost bool
	// Workers is the per-rank compute worker count for the stencil kernels
	// (the rank's "OpenMP team" in the paper's experiments). 0 resolves to
	// the rank's share of the host, GOMAXPROCS ÷ ranks (at least 1), since
	// every rank of a run shares this host; 1 disables intra-rank
	// parallelism. A worker process's runtime is sized to it (see
	// rankShare).
	Workers int
	// Fault is a fault-injection spec (see fault.Parse: delay, stall, panic,
	// mapfail, allocfail clauses), seeded by FaultSeed. Empty (the default)
	// disables injection entirely; the hooks then cost one nil check.
	Fault     string
	FaultSeed int64
	// Watchdog arms the world's deadlock watchdog: a run making no exchange
	// progress for this long while operations are pending is aborted with a
	// StallReport naming every pending endpoint. Zero (the default) disables
	// the watchdog.
	Watchdog time.Duration
	// Metrics, when non-nil, receives the run's full observability stream:
	// per-step phase histograms (impl/rank/phase labels plus a rank="all"
	// aggregate), per-message mpi latency/size/match-wait histograms,
	// worker-pool tile metrics, and end-of-run traffic counters and
	// throughput gauges. Nil (the default) disables all recording; the
	// instrumented paths then cost only pointer checks.
	Metrics *metrics.Registry `json:"-"`

	// Checkpoint enables recovery, the same on every transport: ranks
	// spill their state every CheckpointEvery steps behind a world-wide
	// quiesce barrier and commit it as one brick-ckpt/v1 epoch on disk
	// (internal/ckpt), keeping only the newest committed epoch; a world
	// abort — injected panic, detected corruption, stall, or on shmem/tcp
	// a dead worker — rewinds every rank to that epoch, respawns the world,
	// and replays. Disabled (the default), the step loop pays one nil
	// check.
	Checkpoint bool
	// CheckpointEvery is the absolute-step period between snapshots
	// (warmup steps included); <= 0 defaults to 2.
	CheckpointEvery int
	// CheckpointDir is where epochs commit, as
	// <dir>/epoch<step>/rank<N>.ckpt plus a manifest; epochs an earlier run
	// left there are removed at start, and the newest committed one stays
	// after the run for postmortem inspection. Empty uses a private
	// temporary directory that Run removes when it returns.
	CheckpointDir string
	// MaxRecoveries caps world recoveries before the run fails loud with
	// the original abort chain; <= 0 defaults to 3.
	MaxRecoveries int
	// VerifyCRC enables receive-side payload CRC verification in the mpi
	// layer: silent wire corruption (the `corrupt` fault kind) is detected
	// at delivery and aborts the world — recoverable like a crash.
	VerifyCRC bool

	// Flight enables the always-on flight recorder: every rank records
	// post/deliver/wait/step/phase events into a fixed-depth
	// ring (internal/flight), the watchdog embeds the stalling rank's tail
	// into its StallReport, and a failed run — stall, abort, or exhausted
	// recovery budget — snapshots every ring into a brick-flight/v1
	// artifact at FlightOut (inspect with cmd/flightreport). Disabled (the
	// default), the record hooks cost one nil check each.
	Flight bool
	// FlightDepth is the per-rank ring capacity in events; <= 0 uses
	// flight.DefaultDepth (1024).
	FlightDepth int
	// FlightOut is the artifact path for failed -flight runs; empty
	// defaults to "brick-flight.bin" in the working directory.
	FlightOut string
	// FlightRec optionally supplies the recorder so callers (tests, soak
	// drivers) can inspect the rings after the run; when nil and Flight is
	// set, Run builds one sized by ranks() and FlightDepth.
	FlightRec *flight.Recorder `json:"-"`

	// inj is the compiled Fault spec, set by Run before the rank bodies
	// start; the runners consult it at their hook points. Nil injects
	// nothing.
	inj *fault.Injector
	// ck is the checkpoint/restore state shared by the runners and the
	// recovery driver; nil unless Checkpoint is set.
	ck *ckptState
}

func (c Config) ranks() int { return c.Procs[0] * c.Procs[1] * c.Procs[2] }

// rankShare is a rank's share of a host whose processes start with procs
// GOMAXPROCS: its compute workers — Workers when positive, else
// procs ÷ ranks and at least 1, for every transport runs all ranks on this
// host — and the GOMAXPROCS a rank's own worker process runs at, its
// workers but never more than procs. Sized so, a worker process's frame
// reader, heartbeater and spinner share its rank's processors instead of
// spinning on its peers'. Goroutine ranks share their process and keep its
// GOMAXPROCS.
func (c Config) rankShare(procs int) (workers, rankProcs int) {
	workers = c.Workers
	if workers <= 0 {
		workers = max(1, procs/c.ranks())
	}
	return workers, min(workers, procs)
}

// transportName resolves the empty default to the mpi default backend.
func (c Config) transportName() string {
	if c.Transport == "" {
		return mpi.DefaultTransport
	}
	return c.Transport
}

// supervised reports whether the run spawns worker processes (any backend
// other than the in-process chan default).
func (c Config) supervised() bool { return c.transportName() != mpi.DefaultTransport }

// ExchangePeriod returns how many timesteps one exchange covers.
func (c Config) ExchangePeriod() int {
	if !c.ExpandGhost {
		return 1
	}
	return c.Ghost / c.Stencil.Radius
}

// Result aggregates the run's metrics across ranks and timesteps. All time
// summaries are seconds per timestep.
type Result struct {
	Config Config

	Calc Summary // stencil computation (measured; modeled for GPU)
	Pack Summary // packing/unpacking copies (zero for pack-free impls)
	Call Summary // posting sends/receives
	Wait Summary // completion waits
	Comm Summary // Pack+Call+Wait per timestep
	// Step is the wall-clock time of each timed step, exchange and all
	// (modeled calc+comm for GPU). A paired sweep's time is split evenly
	// between its two steps.
	Step Summary
	// StepHist holds the same step times in log₂ buckets, which merge
	// exactly across ranks, for Step's percentiles.
	StepHist *metrics.Histogram

	// MsgsPerExchange is the number of messages each rank sends per
	// exchange; DataBytes/WireBytes are per rank per exchange.
	MsgsPerExchange int
	DataBytes       int64
	WireBytes       int64

	// MaxProcs is the GOMAXPROCS the ranks ran at, the largest over ranks:
	// the process's own for goroutine ranks, a worker process's as
	// rankShare sized it.
	MaxProcs int

	// GStencils is throughput in 1e9 stencil updates per second over the
	// global domain (paper's GStencil/s): global points over Step's mean.
	GStencils float64

	// Plan summarizes rank 0's compiled exchange plan (nil for GPU
	// implementations, whose exchanges are modeled). All ranks of the
	// periodic experiments compile plans with identical shape.
	Plan *core.PlanSummary

	// Modeled marks GPU results whose times come from the simulator.
	Modeled bool

	// Checksum is a global sum of the final field, for cross-implementation
	// validation.
	Checksum float64

	// Recoveries is how many times the checkpoint drivers rewound the world
	// and replayed — in-process world rewinds under chan, quarantine/respawn
	// rounds under shmem supervision. Zero on fault-free runs; tests use it
	// to prove an injected failure actually fired.
	Recoveries int
}

// newResult is a rank's empty result, ready to book steps.
func newResult(cfg Config) Result {
	return Result{Config: cfg, StepHist: metrics.NewHistogram()}
}

// addStep books one timed step's time.
func (r *Result) addStep(d time.Duration) {
	r.Step.AddDuration(d)
	r.StepHist.Observe(d.Seconds())
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.ranks() <= 0 {
		return fmt.Errorf("harness: bad rank grid %v", c.Procs)
	}
	if name := c.transportName(); mpi.TransportDescription(name) == "" {
		return fmt.Errorf("harness: unknown transport %q (registered: %s)",
			name, strings.Join(mpi.TransportNames(), ", "))
	}
	if c.Steps <= 0 {
		return fmt.Errorf("harness: steps must be positive")
	}
	if c.Stencil.Radius <= 0 {
		return fmt.Errorf("harness: stencil radius must be positive")
	}
	if c.Ghost%c.Stencil.Radius != 0 && c.ExpandGhost {
		return fmt.Errorf("harness: ghost %d not a multiple of radius %d", c.Ghost, c.Stencil.Radius)
	}
	if c.supervised() {
		// Worker ranks are separate processes: hooks that hand the caller a
		// live in-process object cannot see them, and modeled GPU impls
		// have no worker. Checkpoint recovery needs no check: epochs commit
		// on disk on every transport.
		if c.Impl.GPU() {
			return fmt.Errorf("harness: GPU (modeled) impl %s is unsupported on transport %q", c.Impl, c.transportName())
		}
		if c.Metrics != nil {
			return fmt.Errorf("harness: Metrics cannot observe worker processes on transport %q", c.transportName())
		}
		if c.FlightRec != nil {
			return fmt.Errorf("harness: a caller-supplied FlightRec cannot span worker processes on transport %q; set Flight/FlightOut for per-worker artifacts", c.transportName())
		}
	}
	return nil
}

// Phase label values of the brick_phase_seconds histogram family.
const (
	PhaseCalc = "calc"
	PhasePack = "pack"
	PhaseCall = "call"
	PhaseWait = "wait"
)

// phasePair is one phase's histogram series, recorded twice: under the
// rank's own label and under the rank="all" cross-rank aggregate (which
// gives consumers exact whole-run percentiles without merging buckets).
type phasePair struct {
	rank, all *metrics.Histogram
}

func (pp phasePair) observe(d time.Duration) {
	s := d.Seconds()
	pp.rank.Observe(s)
	pp.all.Observe(s)
}

// phaseObs caches one rank's per-phase histogram series. A nil observer
// (metrics disabled) is valid and records nothing.
type phaseObs struct {
	calc, pack, call, wait phasePair
}

func newPhaseObs(reg *metrics.Registry, im Impl, rank int) *phaseObs {
	if reg == nil {
		return nil
	}
	pair := func(phase string) phasePair {
		impl := im.String()
		return phasePair{
			rank: reg.Histogram(metrics.PhaseSeconds, metrics.Labels{
				"impl": impl, "rank": strconv.Itoa(rank), "phase": phase}),
			all: reg.Histogram(metrics.PhaseSeconds, metrics.Labels{
				"impl": impl, "rank": "all", "phase": phase}),
		}
	}
	return &phaseObs{
		calc: pair(PhaseCalc), pack: pair(PhasePack),
		call: pair(PhaseCall), wait: pair(PhaseWait),
	}
}

// observeStep records one timed timestep's phase breakdown.
func (po *phaseObs) observeStep(calc, pack, call, wait time.Duration) {
	if po == nil {
		return
	}
	po.calc.observe(calc)
	po.pack.observe(pack)
	po.call.observe(call)
	po.wait.observe(wait)
}

// describeMetrics registers the help text of every harness-level family.
func describeMetrics(reg *metrics.Registry) {
	reg.Describe(metrics.PhaseSeconds, "Per-timestep phase durations (seconds); phase=calc|pack|call|wait, rank=\"all\" aggregates across ranks.")
	reg.Describe(metrics.GStencilsGauge, "End-of-run throughput in GStencil/s.")
	reg.Describe(metrics.MsgsPerExchangeGauge, "Messages each rank sends per exchange.")
	reg.Describe(metrics.MPISentMsgsTotal, "Point-to-point sends initiated, from Comm.TrafficSnapshot.")
	reg.Describe(metrics.MPISentBytesTotal, "Payload bytes of initiated sends.")
	reg.Describe(metrics.MPIRecvMsgsTotal, "Receives completed at Wait.")
	reg.Describe(metrics.MPIRecvBytesTotal, "Payload bytes of completed receives.")
	reg.Describe(metrics.PlansBuiltTotal, "Compiled exchange plans built; starts_total/plans_built_total is the reuse factor.")
	reg.Describe(metrics.PlanStartsTotal, "Times a compiled exchange plan was started.")
	reg.Describe(metrics.PlanStartBytesTotal, "Payload bytes posted by plan starts.")
	reg.Describe(metrics.ExchangeDegradedTotal, "Exchangers that fell back to copy-based windows (labels: impl, rank, reason).")
	reg.Describe(metrics.CkptBytesTotal, "Checkpoint snapshot payload bytes spilled (labels: impl, rank).")
	reg.Describe(metrics.CkptEpochsTotal, "Committed world-wide checkpoint epochs (labels: impl).")
	reg.Describe(metrics.RecoveryTotal, "Recovery verdicts (labels: rank, outcome=recovered|budget-exhausted).")
	reg.Describe(metrics.FlightEventsTotal, "Flight-recorder events recorded per rank (including later-overwritten ones).")
	reg.Describe(metrics.FlightEventsDroppedTotal, "Flight-recorder events lost to ring wraparound per rank.")
}

// recordPlan captures a rank's compiled exchanges: the first one's plan
// summary into the result (the time levels' plans are identical), and into
// the registry every plan's reuse counters and, once per rank, a degraded
// exchange (nil registry records nothing).
func recordPlan(res *Result, reg *metrics.Registry, im Impl, rank int, tr string, exs []core.Exchanger) {
	sum := exs[0].Plan().Summary()
	res.Plan = &sum
	if reg == nil {
		return
	}
	lb := metrics.Labels{"impl": im.String(), "rank": strconv.Itoa(rank),
		"variant": sum.Variant, "transport": tr}
	reg.Counter(metrics.PlansBuiltTotal, lb).Add(int64(len(exs)))
	for _, ex := range exs {
		st := ex.Stats()
		reg.Counter(metrics.PlanStartsTotal, lb).Add(st.Starts)
		reg.Counter(metrics.PlanStartBytesTotal, lb).Add(st.StartBytes)
	}
	if sum.Degraded != "" {
		reg.Counter(metrics.ExchangeDegradedTotal, metrics.Labels{
			"impl": im.String(), "rank": strconv.Itoa(rank), "reason": sum.Degraded}).Add(1)
	}
}

// Run executes the experiment and returns aggregated metrics.
//
// A rank that fails — a setup error, an injected fault, a panic — aborts
// the whole world: every rank blocked in an exchange or collective is
// released, and Run returns the failure as an *mpi.AbortError (which wraps
// mpi.ErrAborted and, for rank errors, the rank's own error) instead of
// deadlocking on the survivors. A stall under Config.Watchdog surfaces the
// same way, with the AbortError carrying the StallReport.
//
// With Config.Checkpoint set the abort instead triggers checkpoint
// recovery on every transport (see recoveryPolicy): the world rewinds to
// the newest epoch committed on disk and replays, and the run only fails
// once MaxRecoveries is exhausted, and then with the original abort chain.
func Run(cfg Config) (res Result, err error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.Workers, _ = cfg.rankShare(runtime.GOMAXPROCS(0))
	inj, err := fault.Parse(cfg.Fault, cfg.FaultSeed)
	if err != nil {
		return Result{}, err
	}
	if inj.HasProcessFaults() && !cfg.supervised() {
		// A kill/exit clause fires inside the rank's process — on the chan
		// transport that is the harness (and test binary) itself.
		return Result{}, fmt.Errorf("harness: fault %q kills rank processes; it needs a process-per-rank transport (-transport shmem or tcp)", cfg.Fault)
	}
	if inj.HasNetFaults() && cfg.transportName() != "tcp" {
		// Frame-layer faults live below message matching; only the framed
		// stream transport consults them, so anywhere else the spec would
		// silently inject nothing.
		return Result{}, fmt.Errorf("harness: fault %q injects network faults; they need the tcp transport (-transport tcp)", cfg.Fault)
	}
	if cfg.Checkpoint {
		dir, done, err := checkpointDir(cfg.CheckpointDir)
		if err != nil {
			return Result{}, err
		}
		defer done()
		cfg.CheckpointDir = dir
	}
	if cfg.supervised() {
		// Workers re-parse the fault spec themselves; the parse above only
		// front-loads syntax errors before any process spawns.
		return runSupervised(cfg)
	}
	cfg.inj = inj
	cfg.resolveFlight()
	perRank := make([]Result, cfg.ranks())
	w, detach := setupWorld(cfg)
	defer detach()
	pol := newRecoveryPolicy(cfg)
	var onRecover func(*mpi.AbortError, int) (int, bool)
	if cfg.Checkpoint {
		cfg.ck = newCkptState(cfg, w)
		onRecover = func(ae *mpi.AbortError, _ int) (int, bool) { return pol.decide(ae.Rank) }
	}
	// World.RunRecoverable re-raises the failure it gave up on as an
	// *mpi.AbortError panic once every rank has unwound; surface it as the
	// run's error.
	defer func() {
		if p := recover(); p != nil {
			ae, ok := p.(*mpi.AbortError)
			if !ok {
				panic(p)
			}
			reason := ""
			if pol.exhausted {
				reason = "recovery-budget"
			}
			flightDump(cfg, ae, reason)
			res, err = Result{}, pol.wrap(ae)
		}
	}()
	w.RunRecoverable(rankBody(cfg, perRank), onRecover)
	res = aggregate(cfg, perRank)
	res.Recoveries = pol.recovered
	return res, nil
}

// resolveFlight materializes the run's flight recorder: the supplied
// FlightRec if any, otherwise a fresh one when Flight is set. Run and
// WorkerMain call it once, before the first world starts, so one
// recorder (and one time epoch) spans every recovery epoch.
func (c *Config) resolveFlight() {
	if c.FlightRec == nil && c.Flight {
		c.FlightRec = flight.New(c.ranks(), c.FlightDepth)
	}
}

// flightDump snapshots the flight recorder into the brick-flight/v1
// artifact after a failed run. reason overrides the inferred trigger
// ("stall" for watchdog aborts, "abort" otherwise) — the recovery driver
// passes "recovery-budget" when the budget ran out. Best-effort: an
// artifact write failure is reported on stderr, not allowed to mask the
// run's real error.
func flightDump(cfg Config, ae *mpi.AbortError, reason string) {
	fr := cfg.FlightRec
	if fr == nil {
		return
	}
	var pending []flight.PendingRef
	if rep, ok := ae.Value.(*mpi.StallReport); ok {
		if reason == "" {
			reason = "stall"
		}
		for _, op := range rep.Pending {
			pending = append(pending, flight.PendingRef{Kind: op.Kind, Src: op.Src, Dst: op.Dst, Tag: op.Tag})
		}
	} else if reason == "" {
		reason = "abort"
	}
	path := cfg.FlightOut
	if path == "" {
		path = "brick-flight.bin"
	}
	snap := fr.Snapshot(reason, ae.Error(), pending)
	snap.Transport = cfg.transportName()
	if werr := snap.WriteFile(path); werr != nil {
		fmt.Fprintf(os.Stderr, "harness: flight artifact write failed: %v\n", werr)
	} else {
		fmt.Fprintf(os.Stderr, "harness: flight recorder artifact written to %s (inspect with flightreport)\n", path)
	}
}

// setupWorld builds the world with the config's fault, watchdog, CRC,
// flight, and metrics wiring. The returned detach func undoes the
// process-wide pool instrumentation; call it when the run ends.
func setupWorld(cfg Config) (*mpi.World, func()) {
	w := mpi.NewWorld(cfg.ranks())
	w.SetFault(cfg.inj)
	w.SetWatchdog(cfg.Watchdog, nil)
	w.SetVerifyCRC(cfg.VerifyCRC)
	w.SetFlight(cfg.FlightRec)
	detach := func() {}
	if cfg.Metrics != nil {
		describeMetrics(cfg.Metrics)
		w.SetMetrics(cfg.Metrics)
		cfg.inj.SetMetrics(cfg.Metrics)
		// The process-wide pool serves every rank's kernels; attach for the
		// duration of this run so tile time and queue depth are visible,
		// then detach so later uninstrumented runs pay nothing.
		stencil.DefaultPool().SetMetrics(cfg.Metrics)
		detach = func() { stencil.DefaultPool().SetMetrics(nil) }
	}
	return w, detach
}

// rankBody returns the per-rank body shared by Run's in-process ranks and
// the worker processes. Under recovery the body re-runs per epoch, so
// everything it builds — topology, decomposition, exchangers — is rebuilt
// from scratch each time; the runners restore snapshot state internally.
func rankBody(cfg Config, perRank []Result) func(*mpi.Comm) {
	return func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{cfg.Procs[2], cfg.Procs[1], cfg.Procs[0]}, []bool{true, true, true})
		var r Result
		var err error
		if cfg.Impl.GPU() {
			r, err = runGPURank(cfg, cart)
		} else {
			r, err = runRank(cfg, cart)
		}
		if err != nil {
			// A rank that kept its error to itself used to deadlock the
			// others in their next exchange; abort the world instead.
			c.Abort(err)
		}
		// Global checksum over ranks.
		r.Checksum = c.Allreduce1(mpi.OpSum, r.Checksum)
		r.MaxProcs = runtime.GOMAXPROCS(0)
		if reg := cfg.Metrics; reg != nil {
			// Mirror the drained traffic counters into the registry so the
			// snapshot carries per-rank message/byte counts. Counters
			// accumulate across recovery epochs: traffic of a failed,
			// replayed epoch stays counted, because those bytes really
			// moved.
			tr := c.TrafficSnapshot()
			lb := metrics.Labels{"impl": cfg.Impl.String(), "rank": strconv.Itoa(c.Rank()),
				"transport": c.Transport()}
			reg.Counter(metrics.MPISentMsgsTotal, lb).Add(tr.SentMsgs)
			reg.Counter(metrics.MPISentBytesTotal, lb).Add(tr.SentBytes)
			reg.Counter(metrics.MPIRecvMsgsTotal, lb).Add(tr.RecvMsgs)
			reg.Counter(metrics.MPIRecvBytesTotal, lb).Add(tr.RecvBytes)
			if g := cfg.FlightRec.Rank(c.Rank()); g != nil {
				// Drained like the traffic counters: each event lands in
				// exactly one epoch's add, so recovery replays accumulate.
				total, dropped := g.Drain()
				flb := metrics.Labels{"rank": strconv.Itoa(c.Rank())}
				reg.Counter(metrics.FlightEventsTotal, flb).Add(int64(total))
				reg.Counter(metrics.FlightEventsDroppedTotal, flb).Add(int64(dropped))
			}
		}
		perRank[c.Rank()] = r
	}
}

// aggregate merges the per-rank results into the run's Result.
func aggregate(cfg Config, perRank []Result) Result {
	out := perRank[0]
	out.StepHist = metrics.NewHistogram()
	out.StepHist.Merge(perRank[0].StepHist)
	for _, r := range perRank[1:] {
		out.Calc.Merge(r.Calc)
		out.Pack.Merge(r.Pack)
		out.Call.Merge(r.Call)
		out.Wait.Merge(r.Wait)
		out.Comm.Merge(r.Comm)
		out.Step.Merge(r.Step)
		out.StepHist.Merge(r.StepHist)
		out.MaxProcs = max(out.MaxProcs, r.MaxProcs)
	}
	globalPoints := float64(cfg.Dom[0]*cfg.Procs[0]) * float64(cfg.Dom[1]*cfg.Procs[1]) * float64(cfg.Dom[2]*cfg.Procs[2])
	if step := out.Step.Mean(); step > 0 {
		out.GStencils = globalPoints / step / 1e9
	}
	if reg := cfg.Metrics; reg != nil {
		lb := metrics.Labels{"impl": cfg.Impl.String()}
		reg.Gauge(metrics.GStencilsGauge, lb).Set(out.GStencils)
		reg.Gauge(metrics.MsgsPerExchangeGauge, lb).Set(float64(out.MsgsPerExchange))
	}
	return out
}

// initValue seeds the domain deterministically and injectively by global
// coordinates, so checksums are comparable across implementations.
func initValue(gx, gy, gz int) float64 {
	h := uint64(gx)*0x9E3779B97F4A7C15 ^ uint64(gy)*0xC2B2AE3D27D4EB4F ^ uint64(gz)*0x165667B19E3779F9
	return float64(h%100000)/50000.0 - 1.0
}

// margins precomputes the ghost-expansion margin for each phase of the
// exchange period.
func margins(cfg Config) []int {
	m := cfg.ExchangePeriod()
	if m == 1 {
		return []int{0} // fresh ghosts every step: no redundant computation
	}
	out := make([]int, m)
	for q := 0; q < m; q++ {
		out[q] = cfg.Ghost - (q+1)*cfg.Stencil.Radius
	}
	return out
}
