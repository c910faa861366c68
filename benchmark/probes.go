package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/bricklab/brick/internal/ckpt"
	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/mpi/proc"
	"github.com/bricklab/brick/internal/mpi/tcpconn"
	"github.com/bricklab/brick/internal/shmem"
	"github.com/bricklab/brick/internal/stencil"
)

// The probes time calls into each module's public functions from outside,
// with nothing else running. Every timed probe takes three samples of at
// least probes.dur each and reports the median.
type probes struct {
	dur time.Duration // minimum length of one sample
	dim int           // subdomain of the exchange probes: 32, or 16 at toy scale
	tmp string        // scratch directory for spill files
	out map[string]float64
}

var probeShape = core.Shape{8, 8, 8}

const probeGhost = 8

// perOp calls op until dur has elapsed, three times, and returns the median
// seconds per call.
func (p *probes) perOp(op func()) float64 {
	var samples [3]float64
	for i := range samples {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < p.dur {
			op()
			n++
		}
		samples[i] = time.Since(t0).Seconds() / float64(n)
	}
	return median(samples[:])
}

// pairOp is perOp for an operation both ranks of a world take part in. Both
// ranks call it with the same arguments; they repeat batches of k calls until
// rank 0 has timed dur (or maxOps calls, when positive), three times. Only
// the batches are timed, not the collectives that decide whether to go on.
func (p *probes) pairOp(c *mpi.Comm, k, maxOps int, op func()) float64 {
	var samples [3]float64
	for i := range samples {
		var busy time.Duration
		n := 0
		for {
			c.Barrier()
			t0 := time.Now()
			for j := 0; j < k; j++ {
				op()
			}
			busy += time.Since(t0)
			n += k
			stop := 0.0
			if c.Rank() == 0 && (busy >= p.dur || (maxOps > 0 && n >= maxOps/3)) {
				stop = 1
			}
			if c.Allreduce1(mpi.OpMax, stop) > 0 {
				break
			}
		}
		samples[i] = busy.Seconds() / float64(n)
	}
	return median(samples[:])
}

// runAll runs every probe and returns the metrics by name.
func (p *probes) runAll() (map[string]float64, error) {
	p.out = map[string]float64{}
	steps := []func() error{
		p.stencilKernels, p.exchangeEngines, p.hotPathAllocs, p.buildAndCompile,
		p.mpiPrimitives, p.frames, p.shmemViews, p.layoutOrder, p.spawn,
		p.recorders, p.checkpoints,
	}
	for _, f := range steps {
		if err := f(); err != nil {
			return p.out, err
		}
	}
	return p.out, nil
}

// brickField builds a decomposition with storage whose first field holds the
// harness's initial values.
func brickField(dim int, order []layout.Set, mapped bool, opts ...core.Option) (*core.BrickDecomp, *core.BrickStorage, error) {
	if mapped {
		opts = append(opts, core.WithPageAlignment(os.Getpagesize()))
	}
	dec, err := core.NewBrickDecomp(probeShape, [3]int{dim, dim, dim}, probeGhost, 2, order, opts...)
	if err != nil {
		return nil, nil, err
	}
	bs := dec.Allocate()
	if mapped {
		if bs, err = dec.MmapAllocate(); err != nil {
			return nil, nil, err
		}
	}
	ext := dec.ExtDim()
	for z := 0; z < ext[2]; z++ {
		for y := 0; y < ext[1]; y++ {
			for x := 0; x < ext[0]; x++ {
				dec.SetElem(bs, 0, x, y, z, initValue(x, y, z))
			}
		}
	}
	return dec, bs, nil
}

// stencilKernels times one application of each kernel on one thread with no
// ghost-expansion margin: the plain single-threaded baseline.
func (p *probes) stencilKernels() error {
	brick := func(name string, dim int, st stencil.Stencil, order []layout.Set, mapped bool, opts ...core.Option) error {
		dec, bs, err := brickField(dim, order, mapped, opts...)
		if err != nil {
			return err
		}
		defer bs.Close()
		info, cur := dec.BrickInfo(), 0
		sec := p.perOp(func() {
			stencil.ApplyBricksParallel(core.NewBrick(info, bs, 1-cur), core.NewBrick(info, bs, cur), dec, st, 0, 1)
			cur = 1 - cur
		})
		p.out[name] = sec * 1e9 / float64(dim*dim*dim)
		return nil
	}
	array := func(name string, dim int, st stencil.Stencil) {
		gs := [2]*grid.Grid{grid.New([3]int{dim, dim, dim}, probeGhost), grid.New([3]int{dim, dim, dim}, probeGhost)}
		for i := range gs[0].Data {
			gs[0].Data[i] = initValue(i, 0, 0)
		}
		cur := 0
		sec := p.perOp(func() {
			stencil.ApplyGridWorkers(gs[1-cur], gs[cur], st, 0, 1)
			cur = 1 - cur
		})
		p.out[name] = sec * 1e9 / float64(dim*dim*dim)
	}
	d7, d125 := 2*p.dim, p.dim
	if err := brick("stencil.brick7.ns_per_elem", d7, stencil.Star7(), layout.Surface3D(), false); err != nil {
		return err
	}
	if err := brick("stencil.brick7.mapped.ns_per_elem", d7, stencil.Star7(), layout.Surface3D(), true); err != nil {
		return err
	}
	if err := brick("stencil.brick7.lexorder.ns_per_elem", d7, stencil.Star7(), layout.Lexicographic(3), false, core.WithPerRegionMessages()); err != nil {
		return err
	}
	array("stencil.grid7.ns_per_elem", d7, stencil.Star7())
	if err := brick("stencil.brick125.ns_per_elem", d125, stencil.Cube125(), layout.Surface3D(), false); err != nil {
		return err
	}
	array("stencil.grid125.ns_per_elem", d125, stencil.Cube125())
	p.out["stencil.brick_over_grid7"] = p.out["stencil.brick7.ns_per_elem"] / p.out["stencil.grid7.ns_per_elem"]
	p.out["stencil.brick_over_grid125"] = p.out["stencil.brick125.ns_per_elem"] / p.out["stencil.grid125.ns_per_elem"]
	return nil
}

// onTwoRanks runs body as both ranks of a periodic 2×1×1 world and returns
// the first error a rank reported or the world's abort.
func onTwoRanks(transport string, body func(c *mpi.Comm, cart *mpi.Cart) error) (err error) {
	w, err := mpi.NewWorldOn(transport, 2)
	if err != nil {
		return err
	}
	defer w.Close()
	defer catchAbort(&err)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{1, 1, 2}, []bool{true, true, true})
		if berr := body(c, cart); berr != nil {
			c.Abort(berr)
		}
	})
	return nil
}

// exchangeEngines times Start+Complete of each exchange engine between two
// goroutine ranks with no computation in between.
func (p *probes) exchangeEngines() error {
	dom := [3]int{p.dim, p.dim, p.dim}
	return onTwoRanks("chan", func(c *mpi.Comm, cart *mpi.Cart) error {
		engine := func(prefix string, mapped bool) error {
			dec, bs, err := brickField(p.dim, layout.Surface3D(), mapped)
			if err != nil {
				return err
			}
			defer bs.Close()
			var ex core.Exchanger
			if mapped {
				if ex, err = core.NewExchangeView(core.NewExchanger(dec, cart), bs); err != nil {
					return err
				}
			} else {
				ex = core.NewLayoutExchange(core.NewExchanger(dec, cart), bs)
			}
			defer ex.Close()
			msgs := 0
			sec := p.pairOp(c, 50, 0, func() {
				msgs = ex.Start()
				ex.Complete()
			})
			if c.Rank() == 0 {
				p.out[prefix+".exchange_us"] = sec * 1e6
				p.out[prefix+".ns_per_msg"] = sec * 1e9 / float64(msgs)
			}
			return nil
		}
		if err := engine("core.layout", false); err != nil {
			return err
		}
		if err := engine("core.memmap", true); err != nil {
			return err
		}
		g := grid.New(dom, probeGhost)
		var sent float64
		for _, s := range layout.Regions(3) {
			lo, hi := g.SendRegion(s)
			sent += float64(8 * grid.RegionCount(lo, hi))
		}
		ex := grid.NewPackExchanger(g, cart)
		defer ex.Close()
		sec := p.pairOp(c, 50, 0, func() {
			ex.Start()
			ex.Complete()
		})
		if c.Rank() == 0 {
			p.out["grid.pack.exchange_us"] = sec * 1e6
			p.out["grid.pack.mb_per_s"] = sent / sec / 1e6
		}
		return nil
	})
}

// hotPathAllocs counts heap allocations of the persistent Start+Complete
// cycle on a single-rank periodic world, where every neighbour is the rank
// itself and the cycle completes inline on one goroutine.
func (p *probes) hotPathAllocs() (err error) {
	w := mpi.NewWorld(1)
	defer catchAbort(&err)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
		dec, bs, derr := brickField(p.dim, layout.Surface3D(), false)
		if derr != nil {
			c.Abort(derr)
		}
		ex := core.NewLayoutExchange(core.NewExchanger(dec, cart), bs)
		defer ex.Close()
		ex.Start()
		ex.Complete()
		const steps = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			ex.Start()
			ex.Complete()
		}
		runtime.ReadMemStats(&after)
		// Whole allocations per step, as testing.AllocsPerRun counts them: the
		// counter is process-wide, and a stray runtime allocation in 200 steps
		// is not the hot path's.
		p.out["core.hotpath.allocs_per_step"] = float64((after.Mallocs - before.Mallocs) / steps)
	})
	return nil
}

// buildAndCompile times the set-up work every run pays once: building the
// decomposition, and compiling an exchange plan with its persistent
// endpoints paired across the two ranks.
func (p *probes) buildAndCompile() error {
	var berr error
	sec := p.perOp(func() {
		if _, err := core.NewBrickDecomp(probeShape, [3]int{p.dim, p.dim, p.dim}, probeGhost, 2, layout.Surface3D()); err != nil {
			berr = err
		}
	})
	if berr != nil {
		return berr
	}
	p.out["core.decomp.build_ms"] = sec * 1e3
	return onTwoRanks("chan", func(c *mpi.Comm, cart *mpi.Cart) error {
		dec, bs, err := brickField(p.dim, layout.Surface3D(), false)
		if err != nil {
			return err
		}
		sec := p.pairOp(c, 2, 0, func() {
			core.NewLayoutExchange(core.NewExchanger(dec, cart), bs).Close()
		})
		if c.Rank() == 0 {
			p.out["core.plan.compile_ms"] = sec * 1e3
		}
		return nil
	})
}

// shmemOneShotCap bounds the one-shot round trips on an in-process shmem
// world: each one-shot send bump-allocates from the 256 MiB segment and is
// never freed (a known defect this benchmark steers clear of, not fixes).
const shmemOneShotCap = 60000

// mpiPrimitives times the point-to-point and collective primitives between
// the two ranks of a world on each transport.
func (p *probes) mpiPrimitives() error {
	for _, tr := range []string{"chan", "shmem", "tcp"} {
		pre := "mpi." + tr + "."
		err := onTwoRanks(tr, func(c *mpi.Comm, _ *mpi.Cart) error {
			peer := 1 - c.Rank()
			set := func(name string, v float64) {
				if c.Rank() == 0 {
					p.out[pre+name] = v
				}
			}
			// Persistent ping-pong: receives are initialised before sends on
			// both ranks so the endpoints pair in one deterministic order.
			pingPong := func(elems int) float64 {
				in, out := make([]float64, elems), make([]float64, elems)
				rq := c.RecvInit(peer, 10+peer, in)
				sq := c.SendInit(peer, 10+c.Rank(), out)
				defer rq.Free()
				defer sq.Free()
				return p.pairOp(c, 20, 0, func() {
					if c.Rank() == 0 {
						sq.Start()
						sq.Wait()
						rq.Start()
						rq.Wait()
					} else {
						rq.Start()
						rq.Wait()
						sq.Start()
						sq.Wait()
					}
				})
			}
			set("persist.rtt_us", pingPong(1)*1e6)
			const payload = 512 << 10
			set("persist.mb_per_s", 2*payload/pingPong(payload/8)/1e6)
			buf := make([]float64, 1)
			oneShotCap := 0
			if tr == "shmem" {
				oneShotCap = shmemOneShotCap
			}
			set("oneshot.rtt_us", 1e6*p.pairOp(c, 20, oneShotCap, func() {
				if c.Rank() == 0 {
					c.Send(1, 1, buf)
					c.Recv(1, 2, buf)
				} else {
					c.Recv(0, 1, buf)
					c.Send(0, 2, buf)
				}
			}))
			set("barrier_us", 1e6*p.pairOp(c, 20, 0, c.Barrier))
			set("allreduce_us", 1e6*p.pairOp(c, 20, 0, func() { c.Allreduce1(mpi.OpSum, 1) }))
			return nil
		})
		if err != nil {
			return fmt.Errorf("mpi probes on %s: %w", tr, err)
		}
	}
	return nil
}

// frames times one tcp frame through a memory buffer: AppendFrame with its
// CRC, then ReadFrame with its check.
func (p *probes) frames() error {
	var ferr error
	frame := func(payload []byte) float64 {
		buf := make([]byte, 0, tcpconn.HeaderBytes+len(payload))
		var rd bytes.Reader
		return p.perOp(func() {
			buf = tcpconn.AppendFrame(buf[:0], 1, payload)
			rd.Reset(buf)
			if _, _, err := tcpconn.ReadFrame(&rd); err != nil {
				ferr = err
			}
		})
	}
	p.out["tcpconn.frame.ns_per_frame"] = frame(make([]byte, 80)) * 1e9
	const big = 256 << 10
	p.out["tcpconn.frame.mb_per_s"] = big / frame(make([]byte, big)) / 1e6
	return ferr
}

// shmemViews times creating an arena of a 32³ MemMap rank's size and mapping
// one two-segment aliasing view of it.
func (p *probes) shmemViews() error {
	const arenaBytes = 4 << 20
	var serr error
	p.out["shmem.arena.create_ms"] = 1e3 * p.perOp(func() {
		a, err := shmem.NewArena(arenaBytes)
		if err != nil {
			serr = err
			return
		}
		a.Close()
	})
	a, err := shmem.NewArena(arenaBytes)
	if err != nil {
		return err
	}
	defer a.Close()
	pg := a.PageSize()
	p.out["shmem.mapvector.us_per_view"] = 1e6 * p.perOp(func() {
		v, err := a.MapVector([]shmem.Segment{{Offset: 0, Len: 4 * pg}, {Offset: 64 * pg, Len: 4 * pg}})
		if err != nil {
			serr = err
			return
		}
		v.Close()
	})
	return serr
}

func (p *probes) layoutOrder() error {
	var order []layout.Set
	p.out["layout.optimize3d.ms"] = 1e3 * p.perOp(func() { order = layout.Optimize(3) })
	p.out["layout.messages3d"] = float64(layout.MessageCount(order))
	return nil
}

// spawn times a whole supervised no-op world: create it, spawn one worker
// process per rank, collect the envelopes, tear it down.
func (p *probes) spawn() error {
	spec, err := json.Marshal(runSpec{BenchReplica: true, Noop: true})
	if err != nil {
		return err
	}
	for _, tr := range []string{"shmem", "tcp"} {
		var serr error
		p.out["proc."+tr+".spawn_ms"] = 1e3 * p.perOp(func() {
			w, err := mpi.NewWorldOn(tr, 2)
			if err != nil {
				serr = err
				return
			}
			defer w.Close()
			if _, err := proc.Run(w, spec, proc.Options{}); err != nil {
				serr = err
			}
		})
		if serr != nil {
			return fmt.Errorf("spawn probe on %s: %w", tr, serr)
		}
	}
	return nil
}

// recorders measures what the metrics registry and the flight recorder cost
// when switched on, on the workload with the shortest step. Runs alternate
// so host drift lands on both sides; the fastest run of each side counts.
func (p *probes) recorders() error {
	steps := int(p.dur.Seconds() * 10000)
	spec := runSpec{Workload: "halo16-memmap-chan", Steps: max(100, min(steps, 5000))}
	best := map[string]float64{}
	for round := 0; round < 2; round++ {
		for _, side := range []string{"off", "metrics", "flight"} {
			s := spec
			s.Metrics, s.Flight = side == "metrics", side == "flight"
			res, err := runChild(s)
			if err != nil {
				return err
			}
			if b, ok := best[side]; !ok || res.RunS < b {
				best[side] = res.RunS
			}
		}
	}
	p.out["metrics.overhead_pct"] = 100 * (best["metrics"] - best["off"]) / best["off"]
	p.out["flight.overhead_pct"] = 100 * (best["flight"] - best["off"]) / best["off"]
	return nil
}

// checkpoints times the brick-ckpt/v1 codec and a two-rank disk-spilled
// epoch on snapshots of a 32³ brick rank.
func (p *probes) checkpoints() error {
	ext := p.dim + 2*probeGhost
	snaps := make([]*ckpt.Snapshot, 2)
	for r := range snaps {
		buf := make([]float64, 2*ext*ext*ext)
		for i := range buf {
			buf[i] = initValue(i, r, 0)
		}
		snaps[r] = &ckpt.Snapshot{Rank: r, Step: 2, Bufs: [][]float64{buf}}
	}
	var enc []byte
	mb := float64(snaps[0].Bytes()) / 1e6
	p.out["ckpt.encode.mb_per_s"] = mb / p.perOp(func() { enc = snaps[0].Encode() })
	var cerr error
	p.out["ckpt.decode.mb_per_s"] = mb / p.perOp(func() {
		if _, err := ckpt.Decode(enc); err != nil {
			cerr = err
		}
	})
	dir, err := os.MkdirTemp(p.tmp, "spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p.out["ckpt.spill.ms_per_epoch"] = 1e3 * p.perOp(func() {
		for _, s := range snaps {
			if err := ckpt.Spill(dir, s); err != nil {
				cerr = err
			}
		}
		if err := ckpt.WriteManifest(dir, snaps[0].Step, len(snaps)); err != nil {
			cerr = err
		}
	})
	return cerr
}
