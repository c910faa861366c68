package stencil_test

import (
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/stencil"
)

// runOverlapWorld runs steps Jacobi-style timesteps over a periodic 2×2×2
// rank grid. When workers > 1 each rank runs its ghost exchange on a separate
// goroutine while worker tiles compute the interior bricks — the structure
// the harness uses for overlapped implementations, and the case the race
// detector must find clean: the in-flight exchange only reads surface-brick
// chunks and writes ghost-brick chunks, disjoint from the interior writes.
// workers == 1 keeps the serial exchange-then-compute order as the reference.
func runOverlapWorld(t *testing.T, st stencil.Stencil, steps, workers int) [][]float64 {
	t.Helper()
	const ranks = 8
	fields := make([][]float64, ranks)
	errs := make([]error, ranks)
	w := mpi.NewWorld(ranks)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		dec, err := core.NewBrickDecomp(core.Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 2, layout.Surface3D())
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		bs := dec.Allocate()
		ext := dec.ExtDim()
		for k := 0; k < ext[2]; k++ {
			for j := 0; j < ext[1]; j++ {
				for i := 0; i < ext[0]; i++ {
					x := uint64(((c.Rank()*ext[2]+k)*ext[1]+j)*ext[0]+i+1) * 0x9E3779B97F4A7C15
					dec.SetElem(bs, 0, i, j, k, float64(x%997)/991.0-0.5)
				}
			}
		}
		info := dec.BrickInfo()
		ex := core.NewLayoutExchange(core.NewExchanger(dec, cart), bs)
		defer ex.Close()
		inter := dec.Interior()
		var surf [][2]int
		for _, s := range dec.Order() {
			if sp := dec.Surface(s); sp.NBricks > 0 {
				surf = append(surf, [2]int{sp.Start, sp.End()})
			}
		}
		for s := 0; s < steps; s++ {
			src := core.NewBrick(info, bs, s%2)
			dst := core.NewBrick(info, bs, 1-s%2)
			c.Barrier()
			if workers > 1 {
				done := make(chan struct{})
				go func() {
					defer close(done)
					ex.Exchange()
				}()
				stencil.ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.End(), workers)
				<-done
				stencil.ApplyBricksSpans(dst, src, dec, st, 0, surf, workers)
			} else {
				ex.Exchange()
				stencil.ApplyBricks(dst, src, dec, st, 0)
			}
		}
		fields[c.Rank()] = dec.ToArray(bs, steps%2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return fields
}

// compareWorlds requires bit-identical fields: every element is written by
// exactly one worker tile and the per-element accumulation order is the same
// serial and tiled, so overlap must not perturb a single bit.
func compareWorlds(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s rank %d: %d elements, want %d", name, r, len(got[r]), len(want[r]))
		}
		for p := range want[r] {
			if got[r][p] != want[r][p] {
				t.Fatalf("%s rank %d element %d: overlapped %v, serial %v",
					name, r, p, got[r][p], want[r][p])
			}
		}
	}
}

// TestOverlapExchangeStress drives concurrent exchange + interior compute
// across a full 8-rank world for several timesteps. Under -race this is the
// main guard for the comm/compute overlap machinery: Isend/Irecv/Wait are
// issued from a goroutine other than the rank body while the worker pool is
// live on the same brick storage.
func TestOverlapExchangeStress(t *testing.T) {
	st := stencil.Star7()
	serial := runOverlapWorld(t, st, 3, 1)
	overlap := runOverlapWorld(t, st, 3, 4)
	compareWorlds(t, st.Name, overlap, serial)
}

// TestOverlapExchangeStressCube125 repeats the stress with the 125-point
// stencil, whose wider reads cover the full surface/ghost read pattern.
func TestOverlapExchangeStressCube125(t *testing.T) {
	if testing.Short() {
		t.Skip("125-point stress skipped in -short mode")
	}
	st := stencil.Cube125()
	serial := runOverlapWorld(t, st, 2, 1)
	overlap := runOverlapWorld(t, st, 2, 3)
	compareWorlds(t, st.Name, overlap, serial)
}
