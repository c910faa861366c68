package harness

import (
	"fmt"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// TestBricksShipYASKBytes: a brick exchange ships only the time level the
// next step reads, so every pack-free implementation puts exactly YASK's
// payload on the wire — 26 ghost regions of one field — and a tcp world's
// traffic counters see one storage's plan per exchange, nothing of the
// other buffer. It runs the 2×1×1 world at 32³ and 64³ per rank (8³
// bricks, ghost 8, no page padding at 4 KiB), exchanging every step, for
// two steps so both time levels' exchanges are counted.
func TestBricksShipYASKBytes(t *testing.T) {
	want := map[int]int64{32: 622592, 64: 1998848}
	for _, dim := range []int{32, 64} {
		for _, im := range []Impl{YASK, Basic, Layout, MemMap, Shift} {
			cfg := Config{
				Impl:    im,
				Procs:   [3]int{2, 1, 1},
				Dom:     [3]int{dim, dim, dim},
				Ghost:   8,
				Shape:   core.Shape{8, 8, 8},
				Stencil: stencil.Star7(),
				Steps:   1 << 20, // never the last step: every step arms the next exchange
				Machine: netmodel.ThetaKNL(),
				Workers: 1,
			}
			t.Run(fmt.Sprintf("%v/%d", im, dim), func(t *testing.T) {
				w, err := mpi.NewWorldOn("tcp", 2)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				w.Run(func(cm *mpi.Comm) {
					lp, err := newRankLoop(cfg, mpi.NewCart(cm, []int{1, 1, 2}, []bool{true, true, true}))
					defer lp.lay.close()
					if err != nil {
						t.Error(err)
						return
					}
					res := lp.res
					if res.DataBytes != want[dim] || res.WireBytes != want[dim] {
						t.Errorf("rank %d: %d data and %d wire bytes per exchange, want YASK's %d",
							lp.rank, res.DataBytes, res.WireBytes, want[dim])
					}
					exs := lp.lay.exchangers()
					plan := exs[0].Plan().SendBytes()
					for i, ex := range exs {
						if b := ex.Plan().SendBytes(); b != plan {
							t.Errorf("rank %d: exchange %d sends %d bytes, exchange 0 %d", lp.rank, i, b, plan)
						}
					}
					cm.TrafficSnapshot() // drop the prologue's sends
					const steps = 2
					for a := 0; a < steps; a++ {
						lp.step(a)
					}
					if got := cm.TrafficSnapshot().SentBytes; got != steps*plan {
						t.Errorf("rank %d: %d payload bytes sent in %d exchanges, want %d per exchange (one storage's plan)",
							lp.rank, got, steps, plan)
					}
				})
			})
		}
	}
}
