package harness

import (
	"fmt"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/ckpt"
	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/gpu"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/stencil"
)

// rankOrigin returns the global element origin of this rank's subdomain.
func rankOrigin(cfg Config, cart *mpi.Cart) [3]int {
	co := cart.MyCoords() // (k, j, i)
	return [3]int{co[2] * cfg.Dom[0], co[1] * cfg.Dom[1], co[0] * cfg.Dom[2]}
}

// seedDomain writes initValue over the rank's owned elements one x-row at
// a time: row(y, z, vals) stores vals at extended coordinates Ghost,
// Ghost+1, … of row (y, z). Rows go in the same z-then-y order as ever.
func seedDomain(cfg Config, cart *mpi.Cart, row func(y, z int, vals []float64)) {
	org := rankOrigin(cfg, cart)
	vals := make([]float64, cfg.Dom[0])
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := range vals {
				vals[x] = initValue(org[0]+x, org[1]+y, org[2]+z)
			}
			row(y+cfg.Ghost, z+cfg.Ghost, vals)
		}
	}
}

// sumDomain sums the rank's owned elements through at, which takes
// extended (ghost-inclusive) coordinates.
func sumDomain(cfg Config, at func(x, y, z int) float64) float64 {
	sum := 0.0
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				sum += at(x+cfg.Ghost, y+cfg.Ghost, z+cfg.Ghost)
			}
		}
	}
	return sum
}

// rankLayout is one rank's data layout: its double-buffered storage, the
// compiled exchange of each buffer, and the stencil sweeps over them.
// brickRank (Basic/Layout/MemMap/Shift) and gridRank (YASK/MPI_Types)
// implement it; rankLoop drives either one through the same steps,
// checkpoints, and accounting.
//
// The schedule follows the exchange period, not the implementation: at
// period 1 the exchange overlaps the interior sweep and the boundary (brick
// surface or grid shell) follows the wait, and above it every exchange
// completes before the step computes, and the sub-steps between two
// exchanges sweep in pairs. Shift is the one exception: its slab phases are
// serialized by corner forwarding, so it never overlaps.
type rankLayout interface {
	// overlapStep runs step abs of the overlapped schedule from buffer cur
	// to buffer 1-cur and returns its compute time.
	overlapStep(abs, cur int) time.Duration
	// degradeAt fires an injected mid-run mapfail due at step abs.
	degradeAt(abs int)
	// sweep advances the field by one sub-step per margin from buffer cur,
	// with nothing in flight, and returns its compute time. One margin
	// writes buffer 1-cur; a pair, margins m and m-R, is one wavefront
	// over k whose second level writes buffer cur again.
	sweep(cur int, margins []int) time.Duration
	// exchangers are the compiled exchanges, in plan-digest order:
	// exchangers()[i] refreshes the ghosts of buffer i.
	exchangers() []core.Exchanger
	// bufs are the live storage buffers a checkpoint copies and a restore
	// overwrites.
	bufs() [][]float64
	// resume readies the layout for its first step after any restore.
	// degraded is the restored snapshot's exchange mode ("" without one).
	resume(degraded string) error
	// checksum sums buffer cur over the owned elements.
	checksum(cur int) float64
	close()
}

// rankLoop is one rank of a measured CPU run: a layout plus everything the
// step loop owns for every layout — fault hooks, flight step marks,
// checkpoints and restore, plan-digest pinning, warmup/timed accounting,
// and the plan record.
type rankLoop struct {
	cfg  Config
	comm *mpi.Comm
	rank int
	lay  rankLayout
	res  Result
	po   *phaseObs
	fr   *flight.Ring

	period, cur, startAbs int
	marg                  []int
	overlap               bool // the overlapped schedule: period 1, not Shift
}

// runRank executes the measured CPU implementations.
func runRank(cfg Config, cart *mpi.Cart) (Result, error) {
	if rank := cart.Comm().Rank(); cfg.inj.AllocFail(rank) {
		return Result{}, fmt.Errorf("fault: injected allocation failure on rank %d", rank)
	}
	lp, err := newRankLoop(cfg, cart)
	defer lp.lay.close()
	if err != nil {
		return lp.res, err
	}
	// One loop over absolute steps so a recovered rank resumes mid-run at
	// its snapshot step. Timing summaries of a recovered run cover only the
	// steps since the restore; determinism (the checksums) is what replay
	// guarantees, not re-measured timings.
	for a := lp.startAbs; a < cfg.Warmup+cfg.Steps; {
		if ck := cfg.ck; ck != nil && a%ck.every == 0 {
			ck.checkpoint(lp.comm, lp.rank, a, func() *ckpt.Snapshot { return lp.snapshot(a) })
		}
		a += lp.step(a)
	}
	recordPlan(&lp.res, cfg.Metrics, cfg.Impl, lp.rank, lp.comm.Transport(), lp.lay.exchangers())
	lp.res.Checksum = lp.lay.checksum(lp.cur)
	return lp.res, nil
}

// newRankLoop builds the rank's layout and, under the recovery driver,
// pins its plan digest and restores the latest checkpoint epoch. It returns
// lp with its layout even on error, so the caller's close releases
// whatever was built.
func newRankLoop(cfg Config, cart *mpi.Cart) (*rankLoop, error) {
	comm := cart.Comm()
	lp := &rankLoop{cfg: cfg, comm: comm, rank: comm.Rank(), res: newResult(cfg),
		po: newPhaseObs(cfg.Metrics, cfg.Impl, comm.Rank()), fr: cfg.FlightRec.Rank(comm.Rank()),
		period: cfg.ExchangePeriod(), marg: margins(cfg)}
	lp.overlap = lp.period == 1 && cfg.Impl != Shift
	newLayout := newGridRank
	if cfg.Impl.Brick() {
		newLayout = newBrickRank
	}
	var err error
	if lp.lay, err = newLayout(cfg, cart, lp.overlap, &lp.res); err != nil {
		return lp, err
	}
	// The compiled plan's sends are the messages of one exchange.
	lp.res.MsgsPerExchange = len(lp.lay.exchangers()[0].Plan().Sends)

	// Under the recovery driver: pin the plan digest (a respawned rank must
	// re-pair the identical plan) and, when a checkpoint epoch exists,
	// rewind storage, cursor, and degraded-exchange mode to it.
	var snap *ckpt.Snapshot
	if ck := cfg.ck; ck != nil {
		if err := ck.noteDigest(lp.rank, lp.digest()); err != nil {
			return lp, err
		}
		if snap, err = ck.latest(lp.rank); err != nil {
			return lp, err
		}
	}
	degraded := ""
	if snap != nil {
		if err := lp.restore(snap); err != nil {
			return lp, err
		}
		degraded = snap.Degraded
	}
	if err := lp.lay.resume(degraded); err != nil {
		return lp, err
	}
	if got := lp.degraded(); snap != nil && got != degraded {
		return lp, fmt.Errorf("harness: rank %d restored exchange degraded=%q but snapshot recorded %q",
			lp.rank, got, degraded)
	}
	return lp, nil
}

// digest is the plan digest the recovery driver pins: the exchangers'
// digests joined by "+".
func (lp *rankLoop) digest() string {
	exs := lp.lay.exchangers()
	ds := make([]string, len(exs))
	for i, ex := range exs {
		ds[i] = ex.Plan().Digest()
	}
	return strings.Join(ds, "+")
}

func (lp *rankLoop) degraded() string { return lp.lay.exchangers()[0].Plan().Degraded }

// snapshot captures the rank's state at absolute step.
func (lp *rankLoop) snapshot(step int) *ckpt.Snapshot {
	snap := &ckpt.Snapshot{Rank: lp.rank, Step: step, Cur: lp.cur,
		Degraded: lp.degraded(), Digest: lp.digest()}
	for _, b := range lp.lay.bufs() {
		snap.Bufs = append(snap.Bufs, append([]float64(nil), b...))
	}
	return snap
}

// restore rewinds storage and cursor to snap after checking that it was
// taken under the same plan and storage shape.
func (lp *rankLoop) restore(snap *ckpt.Snapshot) error {
	// The snapshot's own digest pins the plan across processes: a respawned
	// worker has no in-memory digest map, but the epoch it restores from
	// remembers what the pre-crash world compiled.
	if d := lp.digest(); snap.Digest != "" && snap.Digest != d {
		return fmt.Errorf("harness: rank %d re-paired plan digest %s differs from snapshot digest %s: replay would diverge",
			lp.rank, d, snap.Digest)
	}
	bufs := lp.lay.bufs()
	ok := len(snap.Bufs) == len(bufs)
	for i := 0; ok && i < len(bufs); i++ {
		ok = len(snap.Bufs[i]) == len(bufs[i])
	}
	if !ok {
		return fmt.Errorf("harness: rank %d snapshot shape mismatch (want %d buffer(s) of %d floats)",
			lp.rank, len(bufs), len(bufs[0]))
	}
	for i, b := range bufs {
		copy(b, snap.Bufs[i])
	}
	lp.cur, lp.startAbs = snap.Cur, snap.Step
	return nil
}

// step runs absolute timestep abs — or, where pairs allows, steps abs and
// abs+1 as one paired sweep — with the fault and flight hooks of each step
// and, past warmup, the accounting, and returns how many steps it ran.
// Warmup steps count the exchange cadence from 0, and so do timed steps.
func (lp *rankLoop) step(abs int) int {
	t0 := time.Now()
	cfg := &lp.cfg
	s, timed := abs, abs >= cfg.Warmup
	if timed {
		s -= cfg.Warmup
	}
	q, n := s%lp.period, 1
	if lp.pairs(abs, q) {
		n = 2
	}
	lp.fr.StepMark(abs)
	cfg.inj.StepPanic(lp.rank, abs)
	var calc time.Duration
	if lp.overlap {
		calc = lp.lay.overlapStep(abs, lp.cur)
	} else {
		if q == 0 {
			ex := lp.lay.exchangers()[lp.cur]
			ex.Start()
			ex.Complete()
		}
		lp.lay.degradeAt(abs)
		if n == 2 {
			lp.fr.StepMark(abs + 1)
			cfg.inj.StepPanic(lp.rank, abs+1)
			lp.lay.degradeAt(abs + 1)
		}
		calc = lp.lay.sweep(lp.cur, lp.marg[q:q+n])
	}
	// The exchangers' phase split is drained even on untimed warmup steps,
	// so warmup time never leaks into the first timed step.
	tm := drainTimings(lp.lay.exchangers())
	if n == 1 { // a pair's second level wrote buffer cur again
		lp.cur = 1 - lp.cur
	}
	if !timed {
		return n
	}
	// A pair's wall and compute time are booked half to each step, and its
	// exchange (if any) to the first, so every summary stays per step.
	wall := time.Since(t0) / time.Duration(n)
	calc /= time.Duration(n)
	for range n {
		lp.account(wall, calc, tm)
		tm = core.PhaseTimings{}
	}
	return n
}

// pairs reports whether step abs, at sub-step q of the exchange period,
// runs paired with abs+1: q is even and q+1 still inside the period, and no
// boundary falls between the two — not the warmup-to-timed one, not a
// checkpoint, not the end of the run.
func (lp *rankLoop) pairs(abs, q int) bool {
	cfg, next := &lp.cfg, abs+1
	return q%2 == 0 && q+1 < lp.period &&
		next != cfg.Warmup && next < cfg.Warmup+cfg.Steps &&
		(cfg.ck == nil || next%cfg.ck.every != 0)
}

// account books one timed step: its wall time, its compute time and its
// exchanger phase split.
func (lp *rankLoop) account(wall, calc time.Duration, tm core.PhaseTimings) {
	res := &lp.res
	res.addStep(wall)
	res.Calc.AddDuration(calc)
	res.Pack.AddDuration(tm.Pack)
	res.Call.AddDuration(tm.Call)
	res.Wait.AddDuration(tm.Wait)
	res.Comm.AddDuration(tm.Pack + tm.Call + tm.Wait)
	lp.po.observeStep(calc, tm.Pack, tm.Call, tm.Wait)
}

// brickRank is the brick layout of a Basic/Layout/MemMap/Shift run. Each
// time level is its own single-field storage with its own compiled
// exchange, chosen by parity as the grid's exchangers are: step cur reads
// bss[cur], whose ghosts exs[cur] refreshes, and writes bss[1-cur]. So an
// exchange ships only the buffer the next step reads. At period 1 every
// exchange except Shift's overlaps the interior sweep, as gridRank's does:
// in flight it reads only surface bricks and writes only ghost bricks, and
// the interior reads neither ghosts nor anything it writes.
type brickRank struct {
	cfg  Config
	comm *mpi.Comm
	rank int
	dec  *core.BrickDecomp
	info *core.BrickInfo
	bss  [2]*core.BrickStorage
	exs  [2]core.Exchanger
	// mapped is set for MemMap and Shift, whose storages are mapped arenas.
	mapped bool
	// degradable is set for MemMap, the one implementation whose mapped
	// views can be rebuilt as copy windows mid-run (mapfail:step=S faults).
	degradable [2]*core.ExchangeView
	// overlap selects the overlapped schedule; surf are then the surface
	// spans, computed once the exchange completes. Otherwise slabs are the
	// storage spans of each k-slab of bricks, the unit of a paired sweep.
	overlap bool
	surf    [][2]int
	slabs   [][][2]int
	fr      *flight.Ring
}

// newBrickRank builds one rank's brick storages and exchanges, and fills
// the result's byte fields. It returns r even on error, so the
// caller's close releases whatever was built.
func newBrickRank(cfg Config, cart *mpi.Cart, overlap bool, res *Result) (rankLayout, error) {
	comm := cart.Comm()
	r := &brickRank{cfg: cfg, comm: comm, rank: comm.Rank(), mapped: cfg.Impl == MemMap || cfg.Impl == Shift,
		overlap: overlap, fr: cfg.FlightRec.Rank(comm.Rank())}
	order := layout.Surface3D()
	if cfg.Impl == Basic {
		order = layout.Lexicographic(3)
	}
	var opts []core.Option
	switch {
	case r.mapped:
		opts = append(opts, core.WithPageAlignment(cfg.Machine.PageSize))
	case cfg.Impl == Basic:
		opts = append(opts, core.WithPerRegionMessages())
	}
	dec, err := core.NewBrickDecomp(cfg.Shape, cfg.Dom, cfg.Ghost, 1, order, opts...)
	if err != nil {
		return r, err
	}
	r.dec = dec
	alloc := func() (*core.BrickStorage, error) { return dec.Allocate(), nil }
	switch {
	case r.mapped && cfg.inj.MapFailAtAlloc(r.rank):
		// Injected shm failure: allocate the deterministic unmapped arenas,
		// which the exchangers degrade to copy windows.
		alloc = dec.MmapAllocateUnmapped
	case r.mapped:
		alloc = dec.MmapAllocate
	}
	for i := range r.bss {
		if r.bss[i], err = alloc(); err != nil {
			return r, err
		}
	}
	r.info = dec.BrickInfo()
	bx := core.NewExchanger(dec, cart)
	if r.overlap {
		for _, reg := range dec.Order() {
			if sp := dec.Surface(reg); sp.NBricks > 0 {
				r.surf = append(r.surf, [2]int{sp.Start, sp.End()})
			}
		}
	} else {
		r.slabs = slabSpans(dec)
	}
	// Construction order matters: every rank compiles exs[0] fully before
	// exs[1], so the duplicate-key endpoints pair exchange-to-exchange
	// across ranks (FIFO in registration order).
	for i, bs := range r.bss {
		switch cfg.Impl {
		case MemMap:
			ev, err := core.NewExchangeView(bx, bs)
			if err != nil {
				return r, err
			}
			r.exs[i], r.degradable[i] = ev, ev
		case Shift:
			sv, err := core.NewShiftView(bx, bs)
			if err != nil {
				return r, err
			}
			r.exs[i] = sv
		default:
			r.exs[i] = core.NewLayoutExchange(bx, bs)
		}
	}
	// Dom and Ghost are multiples of the brick extent, so an x-row of the
	// domain is whole brick rows, each contiguous in storage: one element
	// index per brick row rather than per element.
	seed, s0 := r.bss[0], cfg.Shape[0]
	seedDomain(cfg, cart, func(y, z int, vals []float64) {
		for x := 0; x < len(vals); x += s0 {
			b, off := dec.ElementIndex(x+cfg.Ghost, y, z)
			copy(seed.Data[b*seed.Chunk()+off:], vals[x:x+s0])
		}
	})

	data, wire := dec.ExchangeBytes()
	res.DataBytes, res.WireBytes = int64(data), int64(wire)
	return r, nil
}

func (r *brickRank) exchangers() []core.Exchanger { return r.exs[:] }

func (r *brickRank) bufs() [][]float64 { return [][]float64{r.bss[0].Data, r.bss[1].Data} }

func (r *brickRank) checksum(cur int) float64 {
	return sumDomain(r.cfg, func(x, y, z int) float64 { return r.dec.Elem(r.bss[cur], 0, x, y, z) })
}

// resume re-enters a restored snapshot's degradation.
func (r *brickRank) resume(degraded string) error {
	if degraded == "" {
		return nil
	}
	// The snapshot was taken after a mid-run degradation whose trigger step
	// replay will not pass again; re-enter the same copy-window fallback
	// before touching the wire.
	for _, ev := range r.degradable {
		if ev != nil && !ev.Degraded() {
			if err := ev.Degrade(degraded); err != nil {
				return err
			}
		}
	}
	return nil
}

// close releases the exchangers and mapped arenas, except on an abort
// unwind: a surviving peer's unmatched one-shot message (or, without the Free
// retraction, a persistent delivery) may still reference their pages and
// endpoints, and copying from an unmapped page is a fatal SIGSEGV no
// recover can catch. Respawn discards the stale references and the next
// epoch maps fresh arenas; a fail-loud run is exiting anyway.
func (r *brickRank) close() {
	if r.comm.Aborting() {
		return
	}
	for _, ex := range r.exs {
		if ex != nil {
			ex.Close()
		}
	}
	for _, bs := range r.bss {
		if bs != nil && r.mapped {
			bs.Close()
		}
	}
}

func (r *brickRank) overlapStep(abs, cur int) time.Duration {
	dec, st, wk := r.dec, r.cfg.Stencil, r.cfg.Workers
	src := core.NewBrick(r.info, r.bss[cur], 0)
	dst := core.NewBrick(r.info, r.bss[1-cur], 0)
	r.fr.Phase(flight.PhaseExchange)
	r.exs[cur].Start()
	r.fr.Phase(flight.PhaseInterior)
	t0 := time.Now()
	inter := dec.Interior()
	stencil.ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.End(), wk)
	calc := time.Since(t0)
	r.exs[cur].Complete()
	r.degradeAt(abs)
	r.fr.Phase(flight.PhaseSurface)
	t0 = time.Now()
	stencil.ApplyBricksSpans(dst, src, dec, st, 0, r.surf, wk)
	return calc + time.Since(t0)
}

// sweep runs a pair as a wavefront over the k-slabs of bricks: the first
// level sweeps slab z, then the second sweeps slab z-1, whose reads of the
// first level's output (slabs z-2 to z) are all written. The second level
// overwrites buffer cur only in slabs the first has finished reading:
// checkBrickApply keeps the radius within one brick, so slab z reads no
// further than slabs z-1 and z+1.
func (r *brickRank) sweep(cur int, margins []int) time.Duration {
	dec, st, wk := r.dec, r.cfg.Stencil, r.cfg.Workers
	a := core.NewBrick(r.info, r.bss[cur], 0)
	b := core.NewBrick(r.info, r.bss[1-cur], 0)
	t0 := time.Now()
	if len(margins) == 1 {
		stencil.ApplyBricksParallel(b, a, dec, st, margins[0], wk)
		return time.Since(t0)
	}
	for z := range len(r.slabs) + 1 {
		if z < len(r.slabs) {
			stencil.ApplyBricksSpans(b, a, dec, st, margins[0], r.slabs[z], wk)
		}
		if z > 0 {
			stencil.ApplyBricksSpans(a, b, dec, st, margins[1], r.slabs[z-1], wk)
		}
	}
	return time.Since(t0)
}

// slabSpans returns, per brick k-coordinate of dec's grid, the runs of
// consecutive storage indices holding that slab's bricks; padding slots
// belong to none.
func slabSpans(dec *core.BrickDecomp) [][][2]int {
	slabs := make([][][2]int, dec.GridDim()[2])
	for idx := range dec.NumBricks() {
		c := dec.BrickCoord(idx)
		if c[0] < 0 {
			continue
		}
		runs := slabs[c[2]]
		if n := len(runs); n > 0 && runs[n-1][1] == idx {
			runs[n-1][1]++
		} else {
			slabs[c[2]] = append(runs, [2]int{idx, idx + 1})
		}
	}
	return slabs
}

// drainTimings drains and sums the phase splits of exs.
func drainTimings(exs []core.Exchanger) core.PhaseTimings {
	var tm core.PhaseTimings
	for _, ex := range exs {
		t := ex.Timings()
		tm.Pack += t.Pack
		tm.Call += t.Call
		tm.Wait += t.Wait
	}
	return tm
}

// degradeAt fires an injected mid-run mapfail. Both schedules call it after
// Complete, where every transfer of either exchange is delivered and
// nothing is started, so the mapped views of both storages can be swapped
// for copy windows (Rebind on a started request would panic).
func (r *brickRank) degradeAt(abs int) {
	if r.degradable[0] == nil || !r.cfg.inj.DegradeAtStep(r.rank, abs) {
		return
	}
	for _, ev := range r.degradable {
		if err := ev.Degrade(core.DegradeForced); err != nil {
			r.comm.Abort(err)
			return
		}
	}
}

// gridRank is the array layout of a YASK/MPI_Types run: a double-buffered
// grid with one exchanger per buffer. At period 1 the exchange overlaps the
// interior sweep: in-flight messages touch only the exchanger's staging
// buffers, so the interior runs while the wire transfer does, and the
// shell follows the wait.
type gridRank struct {
	cfg    Config
	gs     [2]*grid.Grid
	exs    [2]core.Exchanger
	lo, hi [3]int // the interior box, ghost-independent at period 1
}

// newGridRank builds one rank's grids and exchangers, and fills the
// result's byte fields.
func newGridRank(cfg Config, cart *mpi.Cart, _ bool, res *Result) (rankLayout, error) {
	g := &gridRank{cfg: cfg, gs: [2]*grid.Grid{grid.New(cfg.Dom, cfg.Ghost), grid.New(cfg.Dom, cfg.Ghost)}}
	seedDomain(cfg, cart, func(y, z int, vals []float64) {
		copy(g.gs[0].Data[g.gs[0].Idx(cfg.Ghost, y, z):], vals)
	})
	for a := 0; a < 3; a++ {
		g.lo[a], g.hi[a] = cfg.Ghost+cfg.Stencil.Radius, cfg.Ghost+cfg.Dom[a]-cfg.Stencil.Radius
	}
	// Construction order matters: every rank builds exs[0] fully before
	// exs[1], so the duplicate-key endpoints pair exchanger-to-exchanger
	// across ranks (FIFO in registration order).
	for i, gr := range g.gs {
		if cfg.Impl == MPITypes {
			g.exs[i] = grid.NewTypesExchanger(gr, cart)
		} else {
			g.exs[i] = grid.NewPackExchanger(gr, cart)
		}
	}
	// One message per neighbor with exact region payloads: no padding.
	res.DataBytes = g.exs[0].Plan().SendBytes()
	res.WireBytes = res.DataBytes
	return g, nil
}

func (g *gridRank) exchangers() []core.Exchanger { return g.exs[:] }

func (g *gridRank) bufs() [][]float64 { return [][]float64{g.gs[0].Data, g.gs[1].Data} }

func (g *gridRank) checksum(cur int) float64 { return sumDomain(g.cfg, g.gs[cur].At) }

// resume has nothing to re-enter: grid exchanges never degrade, which the
// loop's degraded check enforces against the snapshot.
func (g *gridRank) resume(string) error { return nil }

func (g *gridRank) close() {
	for _, ex := range g.exs {
		ex.Close()
	}
}

func (g *gridRank) overlapStep(_, cur int) time.Duration {
	st, wk := g.cfg.Stencil, g.cfg.Workers
	ex, src, dst := g.exs[cur], g.gs[cur], g.gs[1-cur]
	ex.Start()
	t0 := time.Now()
	stencil.ApplyGridRegionWorkers(dst, src, st, g.lo, g.hi, wk)
	calc := time.Since(t0)
	ex.Complete()
	t0 = time.Now()
	stencil.ApplyGridShellWorkers(dst, src, st, 0, g.lo, g.hi, wk)
	return calc + time.Since(t0)
}

// degradeAt has nothing to fire: grid exchanges never degrade.
func (g *gridRank) degradeAt(int) {}

// sweep runs a pair as a wavefront over k-planes, the second level R
// planes behind the first: plane z of the second level reads the first's
// planes z-R to z+R, all written, and overwrites buffer cur only below the
// planes the first level has still to read.
func (g *gridRank) sweep(cur int, margins []int) time.Duration {
	st, wk, gh, r := g.cfg.Stencil, g.cfg.Workers, g.cfg.Ghost, g.cfg.Stencil.Radius
	a, b := g.gs[cur], g.gs[1-cur]
	t0 := time.Now()
	if len(margins) == 1 {
		stencil.ApplyGridWorkers(b, a, st, margins[0], wk)
		return time.Since(t0)
	}
	var lo1, hi1, lo2, hi2 [3]int
	for ax := 0; ax < 3; ax++ {
		lo1[ax], hi1[ax] = gh-margins[0], gh+g.cfg.Dom[ax]+margins[0]
		lo2[ax], hi2[ax] = gh-margins[1], gh+g.cfg.Dom[ax]+margins[1]
	}
	k0, k1, k2 := lo1[2], hi1[2], lo2[2]
	for z := k0; z < k1; z++ {
		lo1[2], hi1[2] = z, z+1
		stencil.ApplyGridRegionWorkers(b, a, st, lo1, hi1, wk)
		if z2 := z - r; z2 >= k2 {
			lo2[2], hi2[2] = z2, z2+1
			stencil.ApplyGridRegionWorkers(a, b, st, lo2, hi2, wk)
		}
	}
	return time.Since(t0)
}

// runGPURank executes the V-experiment strategies with modeled timing.
func runGPURank(cfg Config, cart *mpi.Cart) (Result, error) {
	res := newResult(cfg)
	res.Modeled = true
	strat := map[Impl]gpu.Strategy{GPULayoutCA: gpu.LayoutCA, GPULayoutUM: gpu.LayoutUM,
		GPUMemMapUM: gpu.MemMapUM, GPUTypesUM: gpu.TypesUM, GPUStaged: gpu.StagedArray}[cfg.Impl]
	spec := gpu.V100()
	if cfg.Machine.PageSize > 0 {
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
	// Leak-on-abort, as in brickRank.close: the sim's storage is a mapped
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

	period := cfg.ExchangePeriod()
	marg := margins(cfg)
	rank := cart.Comm().Rank()
	po := newPhaseObs(cfg.Metrics, cfg.Impl, rank)
	fr := cfg.FlightRec.Rank(rank) // nil when the recorder is off
	// GPU runs have no snapshot hooks: recovery replays a modeled run from
	// step zero (the sim is rebuilt each epoch; injected panics are
	// one-shot, so replay runs clean). Warmup and timed steps each count
	// the exchange cadence from 0.
	for a := 0; a < cfg.Warmup+cfg.Steps; a++ {
		s, timed := a, a >= cfg.Warmup
		if timed {
			s -= cfg.Warmup
		}
		fr.StepMark(a)
		cfg.inj.StepPanic(rank, a)
		var cc gpu.CommCost
		if s%period == 0 {
			cc = sim.Exchange()
		}
		calc := sim.Compute(marg[s%period])
		if !timed {
			continue
		}
		po.observeStep(calc, cc.Fault+cc.Engine, 0, cc.Link)
		res.Calc.AddDuration(calc)
		res.Pack.AddDuration(cc.Fault + cc.Engine)
		res.Call.Add(0)
		res.Wait.AddDuration(cc.Link)
		res.Comm.AddDuration(cc.Total())
		res.addStep(calc + cc.Total())
		if s%period == 0 && res.MsgsPerExchange == 0 {
			res.MsgsPerExchange = cc.Msgs
			res.DataBytes = cc.Data
			res.WireBytes = cc.Wire
		}
	}
	res.Checksum = sumDomain(cfg, sim.Elem)
	return res, nil
}
