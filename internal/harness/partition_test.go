package harness

import (
	"fmt"
	"math"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// TestPipelineMatchesSerial runs every CPU implementation twice: with an
// exchange every step, which overlaps it with computation (bricks pipeline
// the surface pass into partitioned sends; arrays split interior and
// shell), and with ghost expansion, which exchanges then computes. The
// checksums must be math.Float64bits-identical: the schedule reorders when
// data hits the wire, never what it carries. Peers, tags, and byte counts
// of the plan must not change; a brick digest may differ only by the
// appended partition section.
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
		p, s := *pipe.Plan, *serial.Plan
		if p.Sends != s.Sends || p.Recvs != s.Recvs || p.SendBytes != s.SendBytes ||
			p.RecvBytes != s.RecvBytes || p.Variant != s.Variant {
			t.Errorf("%v: the schedule changed the message plan: %+v vs %+v", im, p, s)
		}
		if !im.Brick() || im == Shift {
			// Array exchanges overlap without partitions, and Shift's slab
			// phases are serialized by corner forwarding: one plan for both
			// schedules.
			if p.Partitions != 0 || s.Partitions != 0 || p.Digest != s.Digest {
				t.Errorf("%v: plans differ: %+v vs %+v", im, p, s)
			}
			continue
		}
		// At least one partition per send, and a digest that differs from
		// the serial plan's in (exactly) its partition section.
		if p.Partitions < p.Sends {
			t.Errorf("%v: %d partitions for %d sends, want >= one per send", im, p.Partitions, p.Sends)
		}
		if s.Partitions != 0 {
			t.Errorf("%v: serial schedule compiled %d partitions", im, s.Partitions)
		}
		if p.Digest == s.Digest {
			t.Errorf("%v: pipelined digest did not record the partition section", im)
		}
	}
}

// TestPipelinedStepZeroAllocs: a steady-state step of the rank loop —
// layout step plus the loop's hooks and accounting — makes no heap
// allocation. For bricks that is the pipelined step (receives started,
// interior computed, exchange completed, next sends armed, surface tiles
// firing Pready), the exchange-then-compute step under ghost expansion, and
// Shift's serialized slab phases; for arrays the overlapped step at period
// 1 and the exchange-then-compute step under ghost expansion. Bricks keep
// one exchange per time level, so consecutive steps alternate between two
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
		cfg.Steps = 1 << 20 // never the last step: every step re-arms
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
				pipelined := !c.expand && c.im != Shift
				if pipelined && (br.parts[0] == nil || br.parts[1] == nil) {
					t.Errorf("%s: exchange every step did not select the pipeline", name)
					return
				}
				if !pipelined && (br.parts[0] != nil || br.parts[1] != nil) {
					t.Errorf("%s: the serial schedule compiled a pipeline", name)
					return
				}
			}
			abs := 0
			allocs := testing.AllocsPerRun(50, func() {
				lp.step(abs)
				abs++
			})
			if allocs != 0 {
				t.Errorf("%s: step allocates %v times, want 0", name, allocs)
			}
		})
		w.Close()
	}
}

// TestPartitionedMetrics checks the partition instrument series: every arm
// of a partitioned plan eventually fires all its partitions — the prologue
// plus one re-arm per step except the last, so ready_total counts
// partitions × (warmup + steps) across each rank, and every Pready
// observes a lag sample.
func TestPartitionedMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := baseConfig(Layout)
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Partitions == 0 {
		t.Fatal("pipelined Layout run recorded no partitions")
	}
	snap := reg.Snapshot()
	var ready int64
	for _, c := range snap.Counters {
		if c.Name == metrics.ExchangePartitionsReadyTotal {
			ready += c.Value
		}
	}
	// Identical plans on the periodic world: partitions per rank is rank 0's.
	want := int64(cfg.ranks()) * int64(res.Plan.Partitions) * int64(cfg.Warmup+cfg.Steps)
	if ready != want {
		t.Errorf("partitions ready = %d, want %d (%d ranks x %d partitions x %d arms)",
			ready, want, cfg.ranks(), res.Plan.Partitions, cfg.Warmup+cfg.Steps)
	}
	var lag uint64
	for _, h := range snap.Histograms {
		if h.Name == metrics.PartitionReadyLagSeconds {
			lag += h.Count
		}
	}
	if int64(lag) != ready {
		t.Errorf("lag samples = %d, want %d (one per Pready)", lag, ready)
	}
}
