package harness

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// pairStarts lists the absolute steps the rank loop would start a pair at
// over a whole run of cfg, stepping as runRank does.
func pairStarts(cfg Config) []int {
	lp := &rankLoop{cfg: cfg, period: cfg.exchangePeriod()}
	lp.overlap = lp.period == 1 && cfg.Impl != Shift
	if cfg.Checkpoint {
		lp.cfg.ck = &ckptState{every: cfg.CheckpointEvery}
	}
	var out []int
	for a := 0; a < cfg.Warmup+cfg.Steps; a++ {
		s := a
		if a >= cfg.Warmup {
			s -= cfg.Warmup
		}
		if lp.pairs(a, s%lp.period) {
			out = append(out, a)
			a++
		}
	}
	return out
}

// TestPairSchedule pins where pairs fall: from an even sub-step, inside
// the exchange period, never across the warmup-to-timed boundary, a due
// checkpoint or the end of the run, and never at period 1.
func TestPairSchedule(t *testing.T) {
	cfg := func(ghost, warmup, steps, every int) Config {
		c := Config{Impl: Layout, Ghost: ghost, Stencil: stencil.Star7(), ExpandGhost: true,
			Warmup: warmup, Steps: steps}
		if every > 0 {
			c.Checkpoint, c.CheckpointEvery = true, every
		}
		return c
	}
	period1 := cfg(4, 0, 8, 0)
	period1.ExpandGhost = false
	for _, c := range []struct {
		name string
		cfg  Config
		want []int
	}{
		{"period 4", cfg(4, 0, 8, 0), []int{0, 2, 4, 6}},
		{"period 3", cfg(3, 0, 7, 0), []int{0, 3}},            // 2, 5 end a period; 6 ends the run
		{"odd warmup", cfg(4, 3, 8, 0), []int{0, 3, 5, 7, 9}}, // 2+3 would span it
		{"odd checkpoint", cfg(3, 3, 9, 5), []int{0, 3, 6}},
		{"period 1", period1, nil},
	} {
		if got := pairStarts(c.cfg); !slices.Equal(got, c.want) {
			t.Errorf("%s: pairs start at %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPairedSubstepsBitIdentical: a ghost-expanded run sweeps its sub-steps
// in pairs, and every CPU implementation must still end Float64bits-equal
// to the period-1 run of the same configuration, which never pairs. The
// cells cover an even and an odd exchange period, an odd warmup, an odd
// checkpoint period (so a checkpoint falls where a pair would start), one
// and four workers, and chan plus a supervised transport.
func TestPairedSubstepsBitIdentical(t *testing.T) {
	type shape struct{ ghost, sh, dom int }
	shapes := []shape{{4, 4, 8}, {3, 3, 6}} // periods 4 and 3
	transports := []string{""}
	if shmemOK() {
		transports = append(transports, "shmem")
	}
	for _, tr := range transports {
		for _, im := range SoakImpls {
			for _, s := range shapes {
				for _, wk := range []int{1, 4} {
					if tr != "" && wk != 1 {
						continue // the worker pool is in-process either way
					}
					name := fmt.Sprintf("%s/%v/ghost%d/workers%d", trName(tr), im, s.ghost, wk)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Impl: im, Procs: [3]int{2, 1, 1}, Dom: [3]int{s.dom, s.dom, s.dom},
							Ghost: s.ghost, Shape: core.Shape{s.sh, s.sh, s.sh}, Stencil: stencil.Star7(),
							Warmup: 3, Steps: 9, Machine: netmodel.ThetaKNL(), Workers: wk, Transport: tr,
							Checkpoint: true, CheckpointEvery: 5, Watchdog: 20 * time.Second}
						oracle := cfg
						oracle.ExpandGhost = false
						want, err := Run(oracle)
						if err != nil {
							t.Fatalf("period 1: %v", err)
						}
						cfg.ExpandGhost = true
						got, err := Run(cfg)
						if err != nil {
							t.Fatalf("period %d: %v", cfg.exchangePeriod(), err)
						}
						if math.Float64bits(got.Checksum) != math.Float64bits(want.Checksum) {
							t.Errorf("paired checksum %v, period-1 %v", got.Checksum, want.Checksum)
						}
						if n := got.Calc.N(); n != cfg.ranks()*cfg.Steps {
							t.Errorf("%d calc samples, want one per rank per timed step (%d)", n, cfg.ranks()*cfg.Steps)
						}
					})
				}
			}
		}
	}
}

// shmemOK reports whether cross-process shmem worlds run on this host, as
// skipWithoutShmem does.
func shmemOK() bool {
	w, err := mpi.NewWorldOn("shmem", 1)
	if err != nil {
		return false
	}
	defer w.Close()
	return w.ShmemFile() != nil
}

func trName(tr string) string {
	if tr == "" {
		return "chan"
	}
	return tr
}
