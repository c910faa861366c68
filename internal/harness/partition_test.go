package harness

import (
	"math"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// TestPipelineMatchesSerial runs every brick implementation twice: with an
// exchange every step, which pipelines the surface pass into partitioned
// sends, and with ghost expansion, which exchanges then computes. The
// checksums must be math.Float64bits-identical: the pipeline reorders when
// spans hit the wire, never what they carry. Peers, tags, and byte counts
// of the plan must not change; the digest may differ only by the appended
// partition section.
func TestPipelineMatchesSerial(t *testing.T) {
	for _, im := range []Impl{Basic, Layout, MemMap, Shift, LayoutOL} {
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
		switch im {
		case Shift:
			// Slab phases are serialized by corner forwarding: never pipelined.
			if p.Partitions != 0 || s.Partitions != 0 {
				t.Errorf("%v: unexpected partitions %d/%d", im, p.Partitions, s.Partitions)
			}
		case LayoutOL:
			// Overlap needs fresh ghosts every step, so ghost expansion is
			// ignored and both runs pipeline the same plan.
			if p.Partitions < p.Sends || p.Digest != s.Digest {
				t.Errorf("%v: plans differ: %+v vs %+v", im, p, s)
			}
		default:
			// At least one partition per send, and a digest that differs
			// from the serial plan's in (exactly) its partition section.
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
}

// TestPipelinedStepZeroAllocs: a steady-state pipelined step — receives
// started, interior computed, exchange completed, next sends armed, surface
// tiles firing Pready — makes no heap allocation. A single-rank periodic
// world exchanges with itself over chan, so one goroutine drives the whole
// step.
func TestPipelinedStepZeroAllocs(t *testing.T) {
	// 8³ bricks take the vector 7-point body on an AVX2 host.
	for _, sh := range []int{4, 8} {
		for _, im := range []Impl{Layout, MemMap} {
			cfg := baseConfig(im)
			cfg.Shape, cfg.Ghost = core.Shape{sh, sh, sh}, sh
			cfg.Procs = [3]int{1, 1, 1}
			cfg.Workers = 1
			cfg.Steps = 1 << 20 // never the last step: every step re-arms
			w := mpi.NewWorld(1)
			w.Run(func(c *mpi.Comm) {
				r, err := newBrickRank(cfg, mpi.NewCart(c, []int{1, 1, 1}, []bool{true, true, true}))
				defer r.close()
				if err != nil {
					t.Errorf("%v %d³: %v", im, sh, err)
					return
				}
				if r.part == nil {
					t.Errorf("%v %d³: exchange every step did not select the pipeline", im, sh)
					return
				}
				abs := 0
				allocs := testing.AllocsPerRun(50, func() {
					r.step(abs, abs, true)
					abs++
				})
				if allocs != 0 {
					t.Errorf("%v %d³: pipelined step allocates %v times, want 0", im, sh, allocs)
				}
			})
			w.Close()
		}
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
