package harness

import (
	"fmt"
	"time"

	"github.com/bricklab/brick/internal/ckpt"
	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/gpu"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// rankOrigin returns the global element origin of this rank's subdomain.
func rankOrigin(cfg Config, cart *mpi.Cart) [3]int {
	co := cart.MyCoords() // (k, j, i)
	return [3]int{co[2] * cfg.Dom[0], co[1] * cfg.Dom[1], co[0] * cfg.Dom[2]}
}

func tmpGrid(cfg Config) *grid.Grid { return grid.New(cfg.Dom, cfg.Ghost) }

// runBrickRank executes the Basic/Layout/MemMap implementations.
func runBrickRank(cfg Config, cart *mpi.Cart) (Result, error) {
	res := Result{Config: cfg}
	order := layout.Surface3D()
	if cfg.Impl == Basic {
		order = layout.Lexicographic(3)
	}
	var opts []core.Option
	switch cfg.Impl {
	case MemMap, Shift:
		opts = append(opts, core.WithPageAlignment(cfg.pageBytes()))
	case Basic:
		opts = append(opts, core.WithPerRegionMessages())
	}
	dec, err := core.NewBrickDecomp(cfg.Shape, cfg.Dom, cfg.Ghost, 2, order, opts...)
	if err != nil {
		return res, err
	}
	rank := cart.Comm().Rank()
	if cfg.inj.AllocFail(rank) {
		return res, fmt.Errorf("fault: injected allocation failure on rank %d", rank)
	}
	var bs *core.BrickStorage
	if cfg.Impl == MemMap || cfg.Impl == Shift {
		alloc := dec.MmapAllocate
		if cfg.inj.MapFailAtAlloc(rank) {
			// Injected shm failure: allocate the deterministic unmapped
			// arena, which the exchanger degrades to copy windows.
			alloc = dec.MmapAllocateUnmapped
		}
		if bs, err = alloc(); err != nil {
			return res, err
		}
		// On an abort unwind, leak the arena instead of unmapping it: a
		// surviving peer's parked one-shot envelope (or, without the Free
		// retraction, a persistent delivery) may still reference its pages,
		// and copying from an unmapped page is a fatal SIGSEGV no recover
		// can catch. Respawn discards the stale references and the next
		// epoch maps a fresh arena; a fail-loud run is exiting anyway.
		defer func() {
			if !cart.Comm().Aborting() {
				bs.Close()
			}
		}()
	} else {
		bs = dec.Allocate()
	}
	info := dec.BrickInfo()
	bx := core.NewExchanger(dec, cart)
	wk := cfg.Workers
	// Surface spans of the decomposition, computed after the exchange
	// completes; the interior span is computed while it is in flight.
	var surfSpans [][2]int
	for _, reg := range dec.Order() {
		if sp := dec.Surface(reg); sp.NBricks > 0 {
			surfSpans = append(surfSpans, [2]int{sp.Start, sp.End()})
		}
	}
	// Partitioned sends pipeline the surface pass into the wire: applicable
	// whenever the step overlaps a per-step exchange (every brick impl but
	// Shift, whose slab phases are serialized). The tile list fixed here is
	// both the partition alignment of the compiled plan and the surface
	// pass's execution tiling.
	usePart := cfg.Partitioned && cfg.exchangePeriod() == 1 && cfg.Impl != Shift
	var tiles [][2]int
	var popts []core.PlanOption
	if usePart {
		tiles = stencil.TileSpans(surfSpans, wk)
		if len(tiles) > 0 {
			popts = append(popts, core.WithPartitions(tiles))
		} else {
			usePart = false // no surface to exchange (single-rank world)
		}
	}
	var ex core.Exchanger
	// degradable is set for MemMap, the one implementation whose mapped
	// views can be rebuilt as copy windows mid-run (mapfail:step=S faults).
	var degradable *core.ExchangeView
	switch cfg.Impl {
	case MemMap:
		ev, err := core.NewExchangeView(bx, bs, popts...)
		if err != nil {
			return res, err
		}
		ex = ev
		degradable = ev
	case Shift:
		sv, err := core.NewShiftView(bx, bs)
		if err != nil {
			return res, err
		}
		ex = sv
	default:
		ex = core.NewLayoutExchange(bx, bs, popts...)
	}
	var part core.PartitionedExchanger
	if usePart {
		part, _ = ex.(core.PartitionedExchanger)
		if part == nil {
			usePart = false
		} else if cfg.Metrics != nil {
			if pm, ok := ex.(interface{ SetPartitionMetrics(*metrics.Registry) }); ok {
				pm.SetPartitionMetrics(cfg.Metrics)
			}
		}
	}
	// Same leak-on-abort rule: closing the exchanger unmaps its aliasing
	// views and frees its endpoints; during an abort the safe move is to
	// touch neither and let Respawn wipe the endpoint registry.
	defer func() {
		if !cart.Comm().Aborting() {
			ex.Close()
		}
	}()

	org := rankOrigin(cfg, cart)
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				dec.SetElem(bs, 0, x+cfg.Ghost, y+cfg.Ghost, z+cfg.Ghost,
					initValue(org[0]+x, org[1]+y, org[2]+z))
			}
		}
	}

	// Message plan metrics + modeled network time per exchange.
	chunkBytes := 8 * bs.Chunk()
	var sizes []int
	switch {
	case cfg.Impl == Shift:
		// Six slab transfers: the ±axis slabs, forwarded corners included.
		for axis := 0; axis < 3; axis++ {
			ext := dec.GridDim()
			g := dec.Ghost() / dec.Shape()[axis]
			n := g * chunkBytes
			for a := 0; a < 3; a++ {
				if a == axis {
					continue
				}
				if a < axis {
					n *= ext[a]
				} else {
					n *= ext[a] - 2*g
				}
			}
			sizes = append(sizes, n, n)
		}
	case cfg.Impl == MemMap:
		perDir := map[layout.Set]int{}
		for _, m := range dec.SendMessages() {
			perDir[m.Dir] += m.Span.Padded * chunkBytes
		}
		for _, n := range perDir {
			sizes = append(sizes, n)
		}
	default:
		for _, m := range dec.SendMessages() {
			sizes = append(sizes, m.Span.Padded*chunkBytes)
		}
	}
	res.MsgsPerExchange = len(sizes)
	data, wire := dec.ExchangeBytes()
	res.DataBytes, res.WireBytes = int64(data), int64(wire)
	res.NetworkFloor = networkFloorBricks(cfg, dec)
	netPerExchange := modeledNetwork(cfg.Machine, netmodel.Network, sizes).Seconds()

	period := cfg.exchangePeriod()
	marg := margins(cfg)
	cur := 0
	comm := cart.Comm()
	// Under the recovery driver: pin the plan digest (a respawned rank must
	// re-pair the identical plan) and, when a checkpoint epoch exists,
	// rewind storage, cursor, and degraded-exchange mode to it.
	startAbs := 0
	if ck := cfg.ck; ck != nil {
		if err := ck.noteDigest(rank, ex.Plan().Digest()); err != nil {
			return res, err
		}
		snap, serr := ck.latest(rank)
		if serr != nil {
			return res, serr
		}
		if snap != nil {
			// The snapshot's own digest pins the plan across processes: a
			// respawned worker has no in-memory digest map, but the epoch it
			// restores from remembers what the pre-crash world compiled.
			if snap.Digest != "" && snap.Digest != ex.Plan().Digest() {
				return res, fmt.Errorf("harness: rank %d re-paired plan digest %s differs from snapshot digest %s: replay would diverge",
					rank, ex.Plan().Digest(), snap.Digest)
			}
			if len(snap.Bufs) != 1 || len(snap.Bufs[0]) != len(bs.Data) {
				return res, fmt.Errorf("harness: rank %d snapshot shape mismatch (want 1 buffer of %d floats)",
					rank, len(bs.Data))
			}
			copy(bs.Data, snap.Bufs[0])
			cur = snap.Cur
			startAbs = snap.Step
			if snap.Degraded != "" && degradable != nil && !degradable.Degraded() {
				// The snapshot was taken after a mid-run degradation whose
				// trigger step replay will not pass again; re-enter the same
				// copy-window fallback before touching the wire.
				if derr := degradable.Degrade(snap.Degraded); derr != nil {
					return res, derr
				}
			}
			if got := ex.Plan().Degraded; got != snap.Degraded {
				return res, fmt.Errorf("harness: rank %d restored exchange degraded=%q but snapshot recorded %q",
					rank, got, snap.Degraded)
			}
		}
	}
	po := newPhaseObs(cfg.Metrics, cfg.Impl, comm.Rank())
	fr := cfg.FlightRec.Rank(rank) // nil when the recorder is off
	// Overlap communication with interior computation for every brick
	// implementation except Shift (its three slab phases are serialized by
	// corner forwarding), whenever ghosts are refreshed every step. Ghost
	// expansion steps (period > 1) compute into the ghost margin — the very
	// region the exchange writes — so they keep the exchange-then-compute
	// order.
	overlap := period == 1 && cfg.Impl != Shift
	var readyFn func(int) // hoisted so the step closure never allocates it
	if usePart {
		readyFn = part.ReadyTile
		// Prologue: arm the first exchange's sends with the current field
		// contents — the initial values, or the restored snapshot — fully
		// ready. From here every step's surface pass re-arms the next
		// exchange tile by tile.
		part.StartSends()
		part.ReadyAll()
	}
	// abs is the absolute step index (warmup included): the fault-hook and
	// checkpoint clock. s is the phase-local index driving the exchange
	// cadence.
	step := func(abs, s int, timed bool) {
		fr.StepMark(abs)
		cfg.inj.StepPanic(rank, abs)
		if !usePart {
			if degradable != nil && cfg.inj.DegradeAtStep(rank, abs) {
				// Between steps no exchange is in flight, so the mapped views
				// can be swapped for copy windows here.
				if derr := degradable.Degrade(core.DegradeForced); derr != nil {
					comm.Abort(derr)
				}
			}
			comm.Barrier()
		}
		var calc time.Duration
		src := core.NewBrick(info, bs, cur)
		dst := core.NewBrick(info, bs, 1-cur)
		exchange := s%period == 0
		if usePart {
			// Pipelined partitioned schedule. No per-step barrier: the
			// persistent channels' cycle tokens bound rank skew to one
			// exchange, and a barrier would flatten exactly the pipeline
			// this mode exists to build. The sends for this step's exchange
			// were armed (and progressively released) by the previous
			// step's surface pass — only the receives are started here.
			fr.Phase(flight.PhaseExchange)
			part.StartRecvs()
			fr.Phase(flight.PhaseInterior)
			t0 := time.Now()
			inter := dec.Interior()
			stencil.ApplyBricksRangeWorkers(dst, src, dec, cfg.Stencil, 0, inter.Start, inter.End(), wk)
			calc = time.Since(t0)
			ex.Complete()
			// Pipeline-safe point: every transfer of this step is fully
			// delivered and nothing is armed, so the mapped views can be
			// degraded to copy windows (Rebind on an armed partitioned
			// request would panic).
			if degradable != nil && cfg.inj.DegradeAtStep(rank, abs) {
				if derr := degradable.Degrade(core.DegradeForced); derr != nil {
					comm.Abort(derr)
				}
			}
			onTile := readyFn
			if abs == cfg.Warmup+cfg.Steps-1 {
				onTile = nil // last step: there is no next exchange to feed
			} else {
				part.StartSends()
			}
			fr.Phase(flight.PhaseSurface)
			t0 = time.Now()
			stencil.ApplyBricksTilesFlight(dst, src, dec, cfg.Stencil, 0, tiles, wk, onTile, fr)
			calc += time.Since(t0)
		} else if overlap {
			// Start the exchange, compute interior bricks while it is in
			// flight, complete, then compute the surface bricks. In flight
			// the exchange reads only surface bricks and writes only ghost
			// bricks, both disjoint from the interior span.
			fr.Phase(flight.PhaseExchange)
			ex.Start()
			fr.Phase(flight.PhaseInterior)
			t0 := time.Now()
			inter := dec.Interior()
			stencil.ApplyBricksRangeWorkers(dst, src, dec, cfg.Stencil, 0, inter.Start, inter.End(), wk)
			calc = time.Since(t0)
			ex.Complete()
			fr.Phase(flight.PhaseSurface)
			t0 = time.Now()
			stencil.ApplyBricksSpans(dst, src, dec, cfg.Stencil, 0, surfSpans, wk)
			calc += time.Since(t0)
		} else {
			if exchange {
				ex.Start()
				ex.Complete()
			}
			comm.Barrier() // isolate the exchange phase from computation
			t0 := time.Now()
			stencil.ApplyBricksParallel(dst, src, dec, cfg.Stencil, marg[s%period], wk)
			calc = time.Since(t0)
		}
		cur = 1 - cur
		// Drain the exchanger's internal phase split even on untimed warmup
		// steps, so warmup time never leaks into the first timed step.
		tm := ex.Timings()
		if timed {
			res.Calc.AddDuration(calc)
			res.Pack.AddDuration(tm.Pack)
			res.Call.AddDuration(tm.Call)
			res.Wait.AddDuration(tm.Wait)
			res.Comm.AddDuration(tm.Pack + tm.Call + tm.Wait)
			net := 0.0
			if exchange {
				net = netPerExchange
			}
			res.Network.Add(net)
			// Pack is zero on the pack-free brick paths (the timer only runs
			// when staging work exists, e.g. the shmem-degraded fallback), so
			// CommSynth stays measured on-node movement + modeled wire time.
			res.CommSynth.Add(tm.Pack.Seconds() + net)
			po.observeStep(calc, tm.Pack, tm.Call, tm.Wait)
		}
	}
	// One loop over absolute steps so a recovered rank resumes mid-run at
	// its snapshot step. Timing summaries of a recovered run cover only the
	// steps since the restore; determinism (the checksums) is what replay
	// guarantees, not re-measured timings.
	for a := startAbs; a < cfg.Warmup+cfg.Steps; a++ {
		if ck := cfg.ck; ck != nil && a%ck.every == 0 {
			a := a
			ck.checkpoint(comm, rank, a, func() *ckpt.Snapshot {
				return &ckpt.Snapshot{
					Rank: rank, Step: a, Cur: cur,
					Degraded: ex.Plan().Degraded, Digest: ex.Plan().Digest(),
					Bufs: [][]float64{append([]float64(nil), bs.Data...)},
				}
			})
		}
		if a < cfg.Warmup {
			step(a, a, false)
		} else {
			step(a, a-cfg.Warmup, true)
		}
	}
	recordPlan(&res, cfg.Metrics, cfg.Impl, comm.Rank(), comm.Transport(), ex)
	res.Checksum = checksumBricks(dec, bs, cur, cfg)
	return res, nil
}

// runGridRank executes the YASK/YASK-OL/MPI_Types implementations.
func runGridRank(cfg Config, cart *mpi.Cart) (Result, error) {
	res := Result{Config: cfg}
	gs := [2]*grid.Grid{tmpGrid(cfg), tmpGrid(cfg)}
	org := rankOrigin(cfg, cart)
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				gs[0].Set(x+cfg.Ghost, y+cfg.Ghost, z+cfg.Ghost,
					initValue(org[0]+x, org[1]+y, org[2]+z))
			}
		}
	}
	var sizes []int
	var engineElems int
	for _, s := range layout.Regions(3) {
		lo, hi := gs[0].SendRegion(s)
		sizes = append(sizes, 8*regionCount(lo, hi))
		engineElems += 2 * regionCount(lo, hi)
	}
	// One exchanger per buffer of the double-buffered grid. Construction
	// order matters: every rank builds exs[0] fully before exs[1], so the
	// duplicate-key endpoints pair exchanger-to-exchanger across ranks (FIFO
	// in registration order).
	if rank := cart.Comm().Rank(); cfg.inj.AllocFail(rank) {
		return res, fmt.Errorf("fault: injected allocation failure on rank %d", rank)
	}
	var exs [2]core.Exchanger
	switch cfg.Impl {
	case MPITypes:
		exs[0] = grid.NewTypesExchanger(gs[0], cart)
		exs[1] = grid.NewTypesExchanger(gs[1], cart)
	default:
		exs[0] = grid.NewPackExchanger(gs[0], cart)
		exs[1] = grid.NewPackExchanger(gs[1], cart)
	}
	defer exs[0].Close()
	defer exs[1].Close()
	res.MsgsPerExchange = len(sizes)
	for _, n := range sizes {
		res.DataBytes += int64(n)
	}
	res.WireBytes = res.DataBytes
	res.NetworkFloor = networkFloorGrid(cfg)
	netPerExchange := modeledNetwork(cfg.Machine, netmodel.Network, sizes).Seconds()
	_ = engineElems // the datatype engine's walk is real, measured as Pack

	period := cfg.exchangePeriod()
	marg := margins(cfg)
	cur := 0
	comm := cart.Comm()
	rank := comm.Rank()
	// Under the recovery driver: pin the combined digest of both
	// double-buffer plans, and rewind both grids and the cursor to the
	// latest checkpoint epoch. Grid exchanges never degrade, so the
	// snapshot's degraded reason must be empty, matching the plans.
	startAbs := 0
	if ck := cfg.ck; ck != nil {
		digest := exs[0].Plan().Digest() + "+" + exs[1].Plan().Digest()
		if err := ck.noteDigest(rank, digest); err != nil {
			return res, err
		}
		snap, serr := ck.latest(rank)
		if serr != nil {
			return res, serr
		}
		if snap != nil {
			// Cross-process plan pinning via the snapshot, as in runBrickRank.
			if snap.Digest != "" && snap.Digest != digest {
				return res, fmt.Errorf("harness: rank %d re-paired plan digest %s differs from snapshot digest %s: replay would diverge",
					rank, digest, snap.Digest)
			}
			if len(snap.Bufs) != 2 || len(snap.Bufs[0]) != len(gs[0].Data) || len(snap.Bufs[1]) != len(gs[1].Data) {
				return res, fmt.Errorf("harness: rank %d snapshot shape mismatch (want 2 buffers of %d floats)",
					rank, len(gs[0].Data))
			}
			copy(gs[0].Data, snap.Bufs[0])
			copy(gs[1].Data, snap.Bufs[1])
			cur = snap.Cur
			startAbs = snap.Step
			if got := exs[0].Plan().Degraded; got != snap.Degraded {
				return res, fmt.Errorf("harness: rank %d restored exchange degraded=%q but snapshot recorded %q",
					rank, got, snap.Degraded)
			}
		}
	}
	po := newPhaseObs(cfg.Metrics, cfg.Impl, comm.Rank())
	fr := cfg.FlightRec.Rank(rank) // nil when the recorder is off
	r := cfg.Stencil.Radius
	wk := cfg.Workers
	// MPITypes joins YASKOL in overlapping the exchange with interior
	// computation whenever ghosts are refreshed every step: in-flight
	// messages touch only the exchanger's staging buffers, so the interior
	// sweep runs concurrently with the wire transfer. YASK stays serial as
	// the paper's no-overlap baseline.
	overlapTypes := cfg.Impl == MPITypes && period == 1
	// abs is the absolute step index (warmup included): the fault-hook and
	// checkpoint clock. s is the phase-local index driving the exchange
	// cadence.
	step := func(abs, s int, timed bool) {
		fr.StepMark(abs)
		cfg.inj.StepPanic(rank, abs)
		comm.Barrier()
		var calc time.Duration
		exchange := s%period == 0
		ex := exs[cur]
		switch {
		case cfg.Impl == YASKOL || overlapTypes:
			if exchange {
				ex.Start()
			}
			// Interior (ghost-independent) computation overlaps the wait.
			t0 := time.Now()
			var lo, hi [3]int
			for a := 0; a < 3; a++ {
				lo[a], hi[a] = cfg.Ghost+r, cfg.Ghost+cfg.Dom[a]-r
			}
			stencil.ApplyGridRegionWorkers(gs[1-cur], gs[cur], cfg.Stencil, lo, hi, wk)
			calc = time.Since(t0)
			if exchange {
				ex.Complete()
			}
			t0 = time.Now()
			stencil.ApplyGridShellWorkers(gs[1-cur], gs[cur], cfg.Stencil, 0, lo, hi, wk)
			calc += time.Since(t0)
		default:
			if exchange {
				ex.Start()
				ex.Complete()
			}
			comm.Barrier() // isolate the exchange phase from computation
			t0 := time.Now()
			stencil.ApplyGridWorkers(gs[1-cur], gs[cur], cfg.Stencil, marg[s%period], wk)
			calc = time.Since(t0)
		}
		cur = 1 - cur
		// Drain the used exchanger's phase split even on warmup steps.
		tm := ex.Timings()
		if timed {
			res.Calc.AddDuration(calc)
			res.Pack.AddDuration(tm.Pack)
			res.Call.AddDuration(tm.Call)
			res.Wait.AddDuration(tm.Wait)
			res.Comm.AddDuration(tm.Pack + tm.Call + tm.Wait)
			net := 0.0
			if exchange {
				net = netPerExchange
			}
			res.Network.Add(net)
			res.CommSynth.Add(tm.Pack.Seconds() + net)
			po.observeStep(calc, tm.Pack, tm.Call, tm.Wait)
		}
	}
	// One loop over absolute steps so a recovered rank resumes mid-run at
	// its snapshot step (see runBrickRank).
	for a := startAbs; a < cfg.Warmup+cfg.Steps; a++ {
		if ck := cfg.ck; ck != nil && a%ck.every == 0 {
			a := a
			ck.checkpoint(comm, rank, a, func() *ckpt.Snapshot {
				return &ckpt.Snapshot{
					Rank: rank, Step: a, Cur: cur,
					Degraded: exs[0].Plan().Degraded,
					Digest:   exs[0].Plan().Digest() + "+" + exs[1].Plan().Digest(),
					Bufs: [][]float64{
						append([]float64(nil), gs[0].Data...),
						append([]float64(nil), gs[1].Data...),
					},
				}
			})
		}
		if a < cfg.Warmup {
			step(a, a, false)
		} else {
			step(a, a-cfg.Warmup, true)
		}
	}
	// Both double-buffer exchangers count toward the plan-reuse metrics;
	// the result keeps exs[0]'s summary (the two plans are identical).
	recordPlan(&res, cfg.Metrics, cfg.Impl, comm.Rank(), comm.Transport(), exs[1])
	recordPlan(&res, cfg.Metrics, cfg.Impl, comm.Rank(), comm.Transport(), exs[0])
	res.Checksum = checksumGrid(gs[cur], cfg)
	return res, nil
}

// runGPURank executes the V-experiment strategies with modeled timing.
func runGPURank(cfg Config, cart *mpi.Cart) (Result, error) {
	res := Result{Config: cfg, Modeled: true}
	var strat gpu.Strategy
	switch cfg.Impl {
	case GPULayoutCA:
		strat = gpu.LayoutCA
	case GPULayoutUM:
		strat = gpu.LayoutUM
	case GPUMemMapUM:
		strat = gpu.MemMapUM
	case GPUTypesUM:
		strat = gpu.TypesUM
	case GPUStaged:
		strat = gpu.StagedArray
	}
	spec := gpu.V100()
	if cfg.PageBytes > 0 {
		spec.PageSize = cfg.PageBytes
	} else if cfg.Machine.PageSize > 0 {
		spec.PageSize = cfg.Machine.PageSize
	}
	sim, err := gpu.NewSim(cart, gpu.Config{
		Strategy: strat,
		Dom:      cfg.Dom,
		Ghost:    cfg.Ghost,
		Shape:    cfg.Shape,
		Order:    layout.Surface3D(),
		Machine:  cfg.Machine,
		Spec:     spec,
		Stencil:  cfg.Stencil,
	})
	if err != nil {
		return res, err
	}
	// Leak-on-abort, as in runBrickRank: the sim's storage is a mapped
	// arena that peers' parked transfers may still reference mid-abort.
	defer func() {
		if !cart.Comm().Aborting() {
			sim.Close()
		}
	}()
	org := rankOrigin(cfg, cart)
	sim.Init(func(x, y, z int) float64 {
		return initValue(org[0]+x, org[1]+y, org[2]+z)
	})

	period := cfg.exchangePeriod()
	marg := margins(cfg)
	comm := cart.Comm()
	po := newPhaseObs(cfg.Metrics, cfg.Impl, comm.Rank())
	fr := cfg.FlightRec.Rank(comm.Rank()) // nil when the recorder is off
	// GPU runs have no snapshot hooks: recovery replays a modeled run from
	// step zero (the sim is rebuilt each epoch; injected panics are
	// one-shot, so replay runs clean).
	step := func(abs, s int, timed bool) {
		fr.StepMark(abs)
		cfg.inj.StepPanic(comm.Rank(), abs)
		comm.Barrier()
		var cc gpu.CommCost
		if s%period == 0 {
			cc = sim.Exchange()
		}
		calc := sim.Compute(marg[s%period])
		if timed {
			po.observeStep(calc, cc.Fault+cc.Engine, 0, cc.Link)
			res.Calc.AddDuration(calc)
			res.Pack.AddDuration(cc.Fault + cc.Engine)
			res.Call.Add(0)
			res.Wait.AddDuration(cc.Link)
			res.Comm.AddDuration(cc.Total())
			res.CommSynth.AddDuration(cc.Total())
			res.Network.AddDuration(cc.Link)
			if s%period == 0 && res.MsgsPerExchange == 0 {
				res.MsgsPerExchange = cc.Msgs
				res.DataBytes = cc.Data
				res.WireBytes = cc.Wire
			}
		}
	}
	for a := 0; a < cfg.Warmup+cfg.Steps; a++ {
		if a < cfg.Warmup {
			step(a, a, false)
		} else {
			step(a, a-cfg.Warmup, true)
		}
	}
	// Floor: minimal per-neighbor plan over GPUDirect (NetworkCA line).
	dec, err := core.NewBrickDecomp(cfg.Shape, cfg.Dom, cfg.Ghost, 2, layout.Surface3D())
	if err == nil {
		res.NetworkFloor = gpu.NetworkFloor(dec, cfg.Machine, netmodel.GPUDirect).Seconds()
	}
	res.Checksum = checksumSim(sim, cfg)
	return res, nil
}

func checksumGrid(g *grid.Grid, cfg Config) float64 {
	sum := 0.0
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				sum += g.At(x+cfg.Ghost, y+cfg.Ghost, z+cfg.Ghost)
			}
		}
	}
	return sum
}

func checksumBricks(dec *core.BrickDecomp, bs *core.BrickStorage, field int, cfg Config) float64 {
	sum := 0.0
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				sum += dec.Elem(bs, field, x+cfg.Ghost, y+cfg.Ghost, z+cfg.Ghost)
			}
		}
	}
	return sum
}

func checksumSim(sim *gpu.Sim, cfg Config) float64 {
	sum := 0.0
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				sum += sim.Elem(x+cfg.Ghost, y+cfg.Ghost, z+cfg.Ghost)
			}
		}
	}
	return sum
}
