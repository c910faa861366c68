package stencil_test

import (
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/stencil"
)

// runPartitionedWorld mirrors runPlanWorld but drives ONE partitioned plan
// through the pipelined schedule on a full 8-rank world: StartRecvs at the
// top of each step, Complete racing the interior tiles from a second
// goroutine, then StartSends arming the NEXT exchange before the surface
// pass releases its partitions tile by tile from live pool workers. The
// same compiled plan (same pre-matched partitioned channels) is reused
// across every overlapped step — the reuse pattern the harness runs.
func runPartitionedWorld(t *testing.T, st stencil.Stencil, steps, workers int) [][]float64 {
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
		inter := dec.Interior()
		var surf [][2]int
		for _, s := range dec.Order() {
			if sp := dec.Surface(s); sp.NBricks > 0 {
				surf = append(surf, [2]int{sp.Start, sp.End()})
			}
		}
		tiles := stencil.TileSpans(surf, workers)
		// One partitioned plan, compiled once, reused across every step.
		lx := core.NewLayoutExchange(core.NewExchanger(dec, cart), bs, core.WithPartitions(tiles))
		defer lx.Close()
		if lx.Partitions() == 0 {
			errs[c.Rank()] = errTestNoPartitions
			return
		}
		// Prologue: arm the first exchange fully ready with initial values.
		lx.StartSends()
		lx.ReadyAll()
		for s := 0; s < steps; s++ {
			src := core.NewBrick(info, bs, s%2)
			dst := core.NewBrick(info, bs, 1-s%2)
			lx.StartRecvs()
			done := make(chan struct{})
			go func() {
				defer close(done)
				lx.Complete()
			}()
			stencil.ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.End(), workers)
			<-done
			if s < steps-1 {
				lx.StartSends()
				stencil.ApplyBricksTiles(dst, src, dec, st, 0, tiles, workers, lx.ReadyTile, nil)
			} else {
				stencil.ApplyBricksTiles(dst, src, dec, st, 0, tiles, workers, nil, nil)
			}
		}
		if st := lx.Stats(); st.Starts != int64(steps) {
			t.Errorf("rank %d: plan starts %d, want %d", c.Rank(), st.Starts, steps)
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

var errTestNoPartitions = &testErr{"partitioned plan compiled zero partitions"}

type testErr struct{ s string }

func (e *testErr) Error() string { return e.s }

// TestPartitionedPlanStress reuses one compiled partitioned plan across
// many overlapped timesteps on an 8-rank world. Under -race this guards
// the Pready path's cross-goroutine handoff: pool workers fire partitions
// of an armed send while peers' deliveries race the next step's interior
// tiles, step after step over the same pre-matched partitioned channels.
// The result must stay bit-identical to the serial plan order.
func TestPartitionedPlanStress(t *testing.T) {
	st := stencil.Star7()
	serial := runPlanWorld(t, st, 4, 1)
	pipelined := runPartitionedWorld(t, st, 4, 4)
	compareWorlds(t, st.Name+"-partitioned", pipelined, serial)
}
