package harness

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// TestPipelineMatchesSerial runs every CPU implementation twice: with an
// exchange every step, which overlaps it with the interior sweep (every
// implementation but Shift), and with ghost expansion, which exchanges then
// computes. The checksums must be math.Float64bits-identical: the schedule
// reorders when data hits the wire, never what it carries. The schedule
// compiles the same plan either way.
func TestPipelineMatchesSerial(t *testing.T) {
	for _, im := range SoakImpls {
		cfg := baseConfig(im)
		pipe, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v pipelined: %v", im, err)
		}
		cfg.ExpandGhost = true
		serial, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v serial: %v", im, err)
		}
		if math.Float64bits(pipe.Checksum) != math.Float64bits(serial.Checksum) {
			t.Errorf("%v: pipelined checksum %v != serial %v", im, pipe.Checksum, serial.Checksum)
		}
		if pipe.Plan == nil || serial.Plan == nil {
			t.Fatalf("%v: missing plan summary", im)
		}
		if p, s := *pipe.Plan, *serial.Plan; p != s {
			t.Errorf("%v: the schedule changed the message plan: %+v vs %+v", im, p, s)
		}
	}
}

// TestPipelinedStepZeroAllocs: a steady-state step of the rank loop —
// layout step plus the loop's hooks and accounting — makes no heap
// allocation. For bricks and arrays alike that is the overlapped step at
// period 1 (exchange started, interior computed, exchange completed,
// boundary computed) and, under ghost expansion, the exchange followed by
// paired sub-step sweeps; for Shift its serialized slab phases. Bricks keep one
// exchange per time level, so consecutive steps alternate between two
// compiled plans. A single-rank periodic world exchanges with itself over
// chan, so one goroutine drives the whole step.
func TestPipelinedStepZeroAllocs(t *testing.T) {
	type cell struct {
		im     Impl
		sh     int
		expand bool
	}
	// 8³ bricks take the vector 7-point body on an AVX2 host.
	cells := []cell{{Layout, 4, false}, {MemMap, 4, false}, {Layout, 8, false}, {MemMap, 8, false},
		{YASK, 4, false}, {MPITypes, 4, false}, {YASK, 4, true},
		{Layout, 8, true}, {MemMap, 8, true}, {Shift, 8, false}}
	for _, c := range cells {
		cfg := baseConfig(c.im)
		cfg.Shape, cfg.Ghost = core.Shape{c.sh, c.sh, c.sh}, c.sh
		cfg.ExpandGhost = c.expand
		cfg.Procs = [3]int{1, 1, 1}
		cfg.Workers = 1
		cfg.Warmup = 0
		cfg.Steps = 1 << 20
		name := fmt.Sprintf("%v %d³ expand=%v", c.im, c.sh, c.expand)
		w := mpi.NewWorld(1)
		w.Run(func(cm *mpi.Comm) {
			lp, err := newRankLoop(cfg, mpi.NewCart(cm, []int{1, 1, 1}, []bool{true, true, true}))
			defer lp.lay.close()
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if br, ok := lp.lay.(*brickRank); ok {
				if want := !c.expand && c.im != Shift; br.overlap != want {
					t.Errorf("%s: overlapped schedule %v, want %v", name, br.overlap, want)
					return
				}
			}
			abs := 0
			allocs := testing.AllocsPerRun(50, func() {
				abs += lp.step(abs)
			})
			if allocs != 0 {
				t.Errorf("%s: step allocates %v times, want 0", name, allocs)
			}
		})
		w.Close()
	}
}

// haloConfig is the halo benchmark shape: 32³ bricks of 8³ per rank, ghost
// 8, on 2×1×1 ranks, exchanging every step, one worker.
func haloConfig(im Impl, warmup, steps int) Config {
	return Config{Impl: im, Procs: [3]int{2, 1, 1}, Dom: [3]int{32, 32, 32}, Ghost: 8,
		Shape: core.Shape{8, 8, 8}, Stencil: stencil.Star7(), Warmup: warmup, Steps: steps,
		Machine: netmodel.ThetaKNL(), Workers: 1}
}

// runHaloWorld runs cfg on the two ranks of the in-process world w. Each
// rank builds its loop, passes gate (nil: none), and runs its warmup and
// timed steps; body sees the rank's loop and the wall time of its timed
// steps.
func runHaloWorld(t *testing.T, w *mpi.World, cfg Config, gate func(), body func(lp *rankLoop, wall time.Duration)) {
	t.Helper()
	w.Run(func(cm *mpi.Comm) {
		lp, err := newRankLoop(cfg, mpi.NewCart(cm, []int{1, 1, 2}, []bool{true, true, true}))
		defer lp.lay.close()
		if gate != nil {
			gate() // every rank, so a failed build cannot strand the other
		}
		if err != nil {
			t.Error(err)
			return
		}
		for a := 0; a < cfg.Warmup; a++ {
			lp.step(a)
		}
		t0 := time.Now()
		for a := cfg.Warmup; a < cfg.Warmup+cfg.Steps; a++ {
			lp.step(a)
		}
		body(lp, time.Since(t0))
	})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("world aborted: %v", ae)
	}
}

// TestPhaseAccountAddsUp: the step account partitions the step. Over the
// timed steps of the overlapped schedule, every rank's Calc + Pack + Call +
// Wait is at most the wall time of its step loop, and at least 0.9 of it:
// the phases are disjoint intervals of the step, and what they leave out is
// the loop's bookkeeping. The booked Step times lie between the two: each
// step's clock encloses its phases, and the loop encloses the steps.
// Layout and MemMap at 32³ on every transport.
func TestPhaseAccountAddsUp(t *testing.T) {
	for _, tr := range mpi.TransportNames() {
		for _, im := range []Impl{Layout, MemMap} {
			t.Run(fmt.Sprintf("%s/%v", tr, im), func(t *testing.T) {
				if tr == "shmem" {
					skipWithoutShmem(t)
				}
				w, err := mpi.NewWorldOn(tr, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				runHaloWorld(t, w, haloConfig(im, 5, 40), nil, func(lp *rankLoop, wall time.Duration) {
					r := &lp.res
					phases := r.Calc.Sum() + r.Pack.Sum() + r.Call.Sum() + r.Wait.Sum()
					s := wall.Seconds()
					if phases > s || phases < 0.9*s {
						t.Errorf("rank %d: calc+pack+call+wait %.3f ms over a %.3f ms loop (%.2f), want within [0.9, 1]",
							lp.rank, 1e3*phases, 1e3*s, phases/s)
					}
					if step := r.Step.Sum(); r.Step.N() != r.Calc.N() || phases > step || step > s {
						t.Errorf("rank %d: %d steps booked %.3f ms, want %d steps between the phases' %.3f ms and the loop's %.3f ms",
							lp.rank, r.Step.N(), 1e3*step, r.Calc.N(), 1e3*phases, 1e3*s)
					}
				})
			})
		}
	}
}

// TestTCPOneWritePerPeerPerExchange: on tcp an exchange costs one write per
// remote peer — its Start's one Startall over every send. On 2×1×1 each
// rank has one remote peer, so transport_writes_total grows by exactly one
// per rank per exchange.
func TestTCPOneWritePerPeerPerExchange(t *testing.T) {
	w, err := mpi.NewWorldOn("tcp", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	writes := func() int64 { return reg.Counter(metrics.TransportWritesTotal, nil).Value() }
	const steps = 12
	cfg := haloConfig(Layout, 0, steps)
	// Both ranks are built before the count starts, and neither steps
	// before it does.
	var built sync.WaitGroup
	built.Add(2)
	start := make(chan struct{})
	var before int64
	go func() {
		built.Wait()
		before = writes()
		close(start)
	}()
	gate := func() {
		built.Done()
		<-start
	}
	runHaloWorld(t, w, cfg, gate, func(*rankLoop, time.Duration) {})
	if got := writes() - before; got != 2*steps {
		t.Errorf("transport_writes_total grew by %d over %d exchanges on 2 ranks, want %d: one per rank per exchange",
			got, steps, 2*steps)
	}
}
