package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/mpi/proc"
	"github.com/bricklab/brick/internal/stencil"
)

// The replica is the harness step loop rewritten against the layers' public
// functions only, so that the benchmark can put a span around every call
// into a layer without touching the program. It does the same work as
// harness.Run — the checksum must be Float64bits-identical — on the same
// schedule: overlapped Start → interior → Complete → surface when ghosts are
// exchanged every step; exchange → barrier → compute with a shrinking margin
// under ghost expansion. End-to-end metrics are never taken from it.

// rankResult is what one replica rank measured.
type rankResult struct {
	Rank         int        `json:"rank"`
	ChecksumBits uint64     `json:"checksum_bits"` // global sum, identical on every rank
	LoopS        float64    `json:"loop_s"`        // wall clock of the step loop
	PackS        float64    `json:"pack_s"`        // Exchanger.Timings().Pack over the loop
	Exchanges    int        `json:"exchanges"`
	Sends        int        `json:"sends"` // sum of Exchanger.Start() return values
	DataBytes    int64      `json:"data_bytes"`
	WireBytes    int64      `json:"wire_bytes"`
	SentMsgs     int64      `json:"sent_msgs"` // Comm.TrafficSnapshot over the loop
	SentBytes    int64      `json:"sent_bytes"`
	Elems        float64    `json:"elems"`       // elements computed over the loop, redundant ones included
	ArrayBytes   int64      `json:"array_bytes"` // bytes of the field arrays one step reads and writes
	Trace        *rankTrace `json:"trace,omitempty"`
}

// initValue seeds the domain exactly as the harness does (its function is
// not exported), so replica and harness checksums are comparable.
func initValue(gx, gy, gz int) float64 {
	h := uint64(gx)*0x9E3779B97F4A7C15 ^ uint64(gy)*0xC2B2AE3D27D4EB4F ^ uint64(gz)*0x165667B19E3779F9
	return float64(h%100000)/50000.0 - 1.0
}

// margins is the ghost-expansion margin of each step of one exchange period.
func margins(cfg harness.Config) []int {
	m := exchangePeriod(cfg)
	if m == 1 {
		return []int{0}
	}
	out := make([]int, m)
	for q := range out {
		out[q] = cfg.Ghost - (q+1)*cfg.Stencil.Radius
	}
	return out
}

func computedElems(cfg harness.Config, margin int) float64 {
	return float64(cfg.Dom[0]+2*margin) * float64(cfg.Dom[1]+2*margin) * float64(cfg.Dom[2]+2*margin)
}

// replicaRank runs one rank of the replica: set-up, steps timesteps, global
// checksum.
func replicaRank(c *mpi.Comm, cfg harness.Config, steps int, traced bool) (rankResult, error) {
	cart := mpi.NewCart(c, []int{cfg.Procs[2], cfg.Procs[1], cfg.Procs[0]}, []bool{true, true, true})
	co := cart.MyCoords() // (k, j, i)
	org := [3]int{co[2] * cfg.Dom[0], co[1] * cfg.Dom[1], co[0] * cfg.Dom[2]}
	res := rankResult{Rank: c.Rank()}
	var tr *rankTrace
	if traced {
		tr = newRankTrace(steps * 8)
		res.Trace = tr
	}
	var sum float64
	var err error
	switch cfg.Impl {
	case harness.Layout, harness.MemMap:
		sum, err = replicaBricks(cart, cfg, org, steps, tr, &res)
	case harness.YASK:
		sum = replicaGrid(cart, cfg, org, steps, tr, &res)
	default:
		err = fmt.Errorf("replica: no schedule for impl %s", cfg.Impl)
	}
	if err != nil {
		return res, err
	}
	res.ChecksumBits = math.Float64bits(c.Allreduce1(mpi.OpSum, sum))
	return res, nil
}

// stepLoop times the loop and drains the traffic counters around it.
func stepLoop(c *mpi.Comm, steps int, res *rankResult, step func(s int)) {
	c.TrafficSnapshot()
	t0 := time.Now()
	for s := 0; s < steps; s++ {
		step(s)
	}
	res.LoopS = time.Since(t0).Seconds()
	tf := c.TrafficSnapshot()
	res.SentMsgs, res.SentBytes = tf.SentMsgs, tf.SentBytes
}

func replicaBricks(cart *mpi.Cart, cfg harness.Config, org [3]int, steps int, tr *rankTrace, res *rankResult) (float64, error) {
	var opts []core.Option
	if cfg.Impl == harness.MemMap {
		opts = append(opts, core.WithPageAlignment(cfg.Machine.PageSize))
	}
	dec, err := core.NewBrickDecomp(cfg.Shape, cfg.Dom, cfg.Ghost, 2, layout.Surface3D(), opts...)
	if err != nil {
		return 0, err
	}
	var bs *core.BrickStorage
	var ex core.Exchanger
	bx := core.NewExchanger(dec, cart)
	if cfg.Impl == harness.MemMap {
		if bs, err = dec.MmapAllocate(); err != nil {
			return 0, err
		}
		defer bs.Close()
		if ex, err = core.NewExchangeView(bx, bs); err != nil {
			return 0, err
		}
	} else {
		bs = dec.Allocate()
		ex = core.NewLayoutExchange(bx, bs)
	}
	defer ex.Close()
	g := cfg.Ghost
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				dec.SetElem(bs, 0, x+g, y+g, z+g, initValue(org[0]+x, org[1]+y, org[2]+z))
			}
		}
	}
	var surf [][2]int
	for _, reg := range dec.Order() {
		if sp := dec.Surface(reg); sp.NBricks > 0 {
			surf = append(surf, [2]int{sp.Start, sp.End()})
		}
	}
	data, wire := dec.ExchangeBytes()
	res.DataBytes, res.WireBytes = int64(data), int64(wire)
	res.ArrayBytes = int64(8 * len(bs.Data))

	info, inter, comm := dec.BrickInfo(), dec.Interior(), cart.Comm()
	period, marg, wk, st := exchangePeriod(cfg), margins(cfg), cfg.Workers, cfg.Stencil
	cur := 0
	stepLoop(comm, steps, res, func(s int) {
		tr.setStep(s)
		sp := tr.begin(spanStep)
		id := tr.begin(spanBarrier)
		comm.Barrier()
		tr.end(id)
		src, dst := core.NewBrick(info, bs, cur), core.NewBrick(info, bs, 1-cur)
		if period == 1 {
			id = tr.begin(spanStart)
			res.Sends += ex.Start()
			tr.end(id)
			res.Exchanges++
			id = tr.begin(spanApply)
			stencil.ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.End(), wk)
			tr.end(id)
			id = tr.begin(spanComplete)
			ex.Complete()
			tr.end(id)
			id = tr.begin(spanApply)
			stencil.ApplyBricksSpans(dst, src, dec, st, 0, surf, wk)
			tr.end(id)
		} else {
			if s%period == 0 {
				id = tr.begin(spanStart)
				res.Sends += ex.Start()
				tr.end(id)
				res.Exchanges++
				id = tr.begin(spanComplete)
				ex.Complete()
				tr.end(id)
			}
			id = tr.begin(spanBarrier)
			comm.Barrier()
			tr.end(id)
			id = tr.begin(spanApply)
			stencil.ApplyBricksParallel(dst, src, dec, st, marg[s%period], wk)
			tr.end(id)
		}
		res.Elems += computedElems(cfg, marg[s%period])
		cur = 1 - cur
		res.PackS += ex.Timings().Pack.Seconds()
		tr.end(sp)
	})
	sum := 0.0
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				sum += dec.Elem(bs, cur, x+g, y+g, z+g)
			}
		}
	}
	return sum, nil
}

func replicaGrid(cart *mpi.Cart, cfg harness.Config, org [3]int, steps int, tr *rankTrace, res *rankResult) float64 {
	g := cfg.Ghost
	gs := [2]*grid.Grid{grid.New(cfg.Dom, g), grid.New(cfg.Dom, g)}
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				gs[0].Set(x+g, y+g, z+g, initValue(org[0]+x, org[1]+y, org[2]+z))
			}
		}
	}
	for _, s := range layout.Regions(3) {
		lo, hi := gs[0].SendRegion(s)
		res.DataBytes += int64(8 * grid.RegionCount(lo, hi))
	}
	res.WireBytes = res.DataBytes
	res.ArrayBytes = int64(8 * (len(gs[0].Data) + len(gs[1].Data)))
	// One exchanger per buffer, built in this order on every rank so the
	// persistent endpoints pair exchanger-to-exchanger, as in the harness.
	exs := [2]core.Exchanger{grid.NewPackExchanger(gs[0], cart), grid.NewPackExchanger(gs[1], cart)}
	defer exs[0].Close()
	defer exs[1].Close()

	comm := cart.Comm()
	period, marg, wk, st := exchangePeriod(cfg), margins(cfg), cfg.Workers, cfg.Stencil
	cur := 0
	stepLoop(comm, steps, res, func(s int) {
		tr.setStep(s)
		sp := tr.begin(spanStep)
		id := tr.begin(spanBarrier)
		comm.Barrier()
		tr.end(id)
		ex := exs[cur]
		if s%period == 0 {
			id = tr.begin(spanStart)
			res.Sends += ex.Start()
			tr.end(id)
			res.Exchanges++
			id = tr.begin(spanComplete)
			ex.Complete()
			tr.end(id)
		}
		id = tr.begin(spanBarrier)
		comm.Barrier()
		tr.end(id)
		id = tr.begin(spanApply)
		stencil.ApplyGridWorkers(gs[1-cur], gs[cur], st, marg[s%period], wk)
		tr.end(id)
		res.Elems += computedElems(cfg, marg[s%period])
		cur = 1 - cur
		res.PackS += ex.Timings().Pack.Seconds()
		tr.end(sp)
	})
	sum := 0.0
	for z := 0; z < cfg.Dom[2]; z++ {
		for y := 0; y < cfg.Dom[1]; y++ {
			for x := 0; x < cfg.Dom[0]; x++ {
				sum += gs[cur].At(x+g, y+g, z+g)
			}
		}
	}
	return sum
}

// catchAbort, deferred around World.Run or RunRank, turns the *mpi.AbortError
// they re-raise once every rank has unwound into an error.
func catchAbort(err *error) {
	if p := recover(); p != nil {
		ae, ok := p.(*mpi.AbortError)
		if !ok {
			panic(p)
		}
		*err = ae
	}
}

// runReplica runs the replica in the workload's own process topology:
// goroutine ranks of this process on chan, one worker process per rank (this
// binary re-entered through hostRoles) on shmem and tcp.
func runReplica(spec runSpec, cfg harness.Config) (ranks []rankResult, err error) {
	n := cfg.Procs[0] * cfg.Procs[1] * cfg.Procs[2]
	w, err := mpi.NewWorldOn(cfg.Transport, n)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	ranks = make([]rankResult, n)
	if !w.CanSuperviseWorkers() {
		defer catchAbort(&err)
		w.Run(func(c *mpi.Comm) {
			r, rerr := replicaRank(c, cfg, spec.Steps, spec.Traced)
			if rerr != nil {
				c.Abort(rerr)
			}
			ranks[c.Rank()] = r
		})
		return ranks, nil
	}
	spec.BenchReplica = true
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	envs, err := proc.Run(w, b, proc.Options{})
	if err != nil {
		return nil, err
	}
	for _, e := range envs {
		if e.Err != "" {
			return nil, fmt.Errorf("replica rank %d: %s", e.Rank, e.Err)
		}
		if err := json.Unmarshal(e.Result, &ranks[e.Rank]); err != nil {
			return nil, fmt.Errorf("replica rank %d result: %w", e.Rank, err)
		}
	}
	return ranks, nil
}

// replicaWorkerMain is the rank-worker entry point of a supervised replica:
// attach, run the one rank, report spans and counts in the envelope, exit.
func replicaWorkerMain(spec runSpec) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "replica worker: %v\n", err)
		os.Exit(1)
	}
	var cfg harness.Config
	if !spec.Noop {
		var err error
		if cfg, err = spec.config(); err != nil {
			fail(err)
		}
	}
	wk, w, err := proc.Attach()
	if err != nil {
		fail(err)
	}
	defer w.Close()
	var res rankResult
	var runErr error
	func() {
		defer catchAbort(&runErr)
		w.RunRank(wk.Rank, func(c *mpi.Comm) {
			if spec.Noop {
				c.Barrier()
				return
			}
			r, rerr := replicaRank(c, cfg, spec.Steps, spec.Traced)
			if rerr != nil {
				c.Abort(rerr)
			}
			res = r
		})
	}()
	if err := wk.Report(res, runErr); err != nil {
		fail(err)
	}
	os.Exit(0)
}
