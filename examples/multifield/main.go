// Multifield: interleaved multi-field exchange (paper Section 6). Three
// coupled fields — a reaction-diffusion-style system where each species
// diffuses at a different rate — share one BrickStorage as an
// array-of-structure-of-array, so a single ghost-zone exchange moves all
// of them at once instead of one exchange per field.
//
//	go run ./examples/multifield
package main

import (
	"fmt"
	"math"
	"os"

	brick "github.com/bricklab/brick"
)

const (
	n      = 32
	ghost  = 8
	steps  = 16
	nSpec  = 3 // species count (fields 0-2 current, 3-5 next)
	fields = 2 * nSpec
)

func diffusionStencil(alpha float64) brick.Stencil {
	return brick.Stencil{
		Name:   fmt.Sprintf("heat-a%.2f", alpha),
		Radius: 1,
		Points: []brick.StencilPoint{
			{C: 1 - 6*alpha},
			{DI: -1, C: alpha}, {DI: 1, C: alpha},
			{DJ: -1, C: alpha}, {DJ: 1, C: alpha},
			{DK: -1, C: alpha}, {DK: 1, C: alpha},
		},
	}
}

func main() {
	alphas := []float64{0.05, 0.10, 0.15}
	failed := false
	world := brick.NewWorld(8)
	world.Run(func(c *brick.Comm) {
		cart := brick.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		dec, err := brick.NewBrickDecomp(brick.Shape{8, 8, 8},
			[3]int{n, n, n}, ghost, fields, brick.Surface3D())
		if err != nil {
			panic(err)
		}
		storage := dec.Allocate()
		info := dec.BrickInfo()
		ex := brick.NewLayoutExchange(brick.NewExchanger(dec, cart), storage)
		defer ex.Close()

		// Each species starts as a point mass of a different magnitude on a
		// different rank.
		for sp := 0; sp < nSpec; sp++ {
			if c.Rank() == sp {
				dec.SetElem(storage, sp, ghost+n/2, ghost+n/2, ghost+n/2, 100*float64(sp+1))
			}
		}

		cur := 0 // 0: fields 0..nSpec-1 current; 1: fields nSpec.. current
		exchanges := 0
		for s := 0; s < steps; s++ {
			// One exchange carries all interleaved fields at once.
			ex.Exchange()
			exchanges++
			for sp := 0; sp < nSpec; sp++ {
				src := brick.NewBrick(info, storage, cur*nSpec+sp)
				dst := brick.NewBrick(info, storage, (1-cur)*nSpec+sp)
				brick.ApplyBricks(dst, src, dec, diffusionStencil(alphas[sp]), 0)
			}
			cur = 1 - cur
		}

		// Diffusion conserves each species' total mass independently.
		if c.Rank() == 0 {
			fmt.Printf("%d species interleaved in one storage: %d exchanges moved all %d fields\n",
				nSpec, exchanges, fields)
		}
		for sp := 0; sp < nSpec; sp++ {
			sum := 0.0
			maxv := 0.0
			for z := 0; z < n; z++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						v := dec.Elem(storage, cur*nSpec+sp, x+ghost, y+ghost, z+ghost)
						sum += v
						if v > maxv {
							maxv = v
						}
					}
				}
			}
			sum = c.Allreduce1(brick.OpSum, sum)
			maxv = c.Allreduce1(brick.OpMax, maxv)
			if c.Rank() == 0 {
				want := 100 * float64(sp+1)
				status := "ok"
				if math.Abs(sum-want) > 1e-9*want {
					status = "MASS NOT CONSERVED"
					failed = true
				}
				fmt.Printf("species %d (α=%.2f): mass %.9f (want %.0f, %s), peak %.4f\n",
					sp, alphas[sp], sum, want, status, maxv)
			}
		}
	})
	if failed {
		os.Exit(1)
	}
}
