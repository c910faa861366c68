// Gpusim: compares the paper's four GPU communication strategies on the
// simulated Summit machine model — CUDA-Aware layout, unified-memory layout,
// unified-memory MemMap, and unified-memory derived datatypes — printing the
// modeled per-timestep breakdown and the Table 2-style padding/bandwidth
// summary. Data movement is functionally real (all strategies produce
// bit-identical fields); times come from the deterministic device model.
//
//	go run ./examples/gpusim [-n 32]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/gpu"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

func main() {
	n := flag.Int("n", 32, "subdomain elements per axis per rank (multiple of 8)")
	steps := flag.Int("steps", 8, "timesteps")
	flag.Parse()
	if *n%8 != 0 || *n < 16 {
		fmt.Fprintln(os.Stderr, "gpusim: -n must be a multiple of 8, at least 16")
		os.Exit(2)
	}

	fmt.Printf("%-12s %-10s %-10s %-10s %-10s %-8s %-10s %-10s\n",
		"strategy", "link_ms", "fault_ms", "engine_ms", "comp_ms", "msgs", "pad_%", "checksum")
	var first float64
	mismatch := false
	for _, strat := range []gpu.Strategy{gpu.LayoutCA, gpu.LayoutUM, gpu.MemMapUM, gpu.TypesUM, gpu.StagedArray} {
		var total gpu.CommCost
		var compSec float64
		var checksum float64
		world := mpi.NewWorld(8)
		world.Run(func(c *mpi.Comm) {
			cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
			sim, err := gpu.NewSim(cart, gpu.Config{
				Strategy: strat,
				Dom:      [3]int{*n, *n, *n},
				Ghost:    8,
				Shape:    core.Shape{8, 8, 8},
				Order:    layout.Surface3D(),
				Machine:  netmodel.SummitV100(),
				Spec:     gpu.V100(),
				Stencil:  stencil.Star7(),
			})
			if err != nil {
				panic(err)
			}
			defer sim.Close()
			co := cart.MyCoords()
			sim.Init(func(x, y, z int) float64 {
				return float64((co[2]**n+x)+(co[1]**n+y)*3+(co[0]**n+z)*7) * 0.001
			})
			for s := 0; s < *steps; s++ {
				cc := sim.Exchange()
				comp := sim.Compute(0)
				if c.Rank() == 0 {
					total.Link += cc.Link
					total.Fault += cc.Fault
					total.Engine += cc.Engine
					total.Msgs = cc.Msgs
					total.Data = cc.Data
					total.Wire = cc.Wire
					compSec += comp.Seconds()
				}
			}
			sum := 0.0
			for z := 0; z < *n; z++ {
				for y := 0; y < *n; y++ {
					for x := 0; x < *n; x++ {
						sum += sim.Elem(x+8, y+8, z+8)
					}
				}
			}
			sum = c.Allreduce1(mpi.OpSum, sum)
			if c.Rank() == 0 {
				checksum = sum
			}
		})
		pad := 0.0
		if total.Data > 0 {
			pad = 100 * float64(total.Wire-total.Data) / float64(total.Data)
		}
		fmt.Printf("%-12s %-10.4f %-10.4f %-10.4f %-10.4f %-8d %-10.1f %-10.4f\n",
			strat,
			total.Link.Seconds()*1e3/float64(*steps),
			total.Fault.Seconds()*1e3/float64(*steps),
			total.Engine.Seconds()*1e3/float64(*steps),
			compSec*1e3/float64(*steps),
			total.Msgs, pad, checksum)
		if strat == gpu.LayoutCA {
			first = checksum
		} else if math.Float64bits(checksum) != math.Float64bits(first) {
			mismatch = true
		}
	}
	fmt.Println("\nAll checksums must match: the strategies differ only in data movement.")
	fmt.Println("Times are modeled (V100 roofline + page-fault/link cost model); see DESIGN.md.")
	if mismatch {
		fmt.Println("CHECKSUM MISMATCH")
		os.Exit(1)
	}
}
