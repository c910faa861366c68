// Wave2d: ghost-cell expansion on a 2D 5-point stencil, the paper's
// motivating case for low-order stencils (Section 2). A 1-cell-radius
// stencil cannot fill an 8-wide brick ghost zone per step, so the exchange
// is amortized: communicate once, then take 8 steps with shrinking redundant
// margins. The example runs the same simulation both ways — exchanging every
// step and exchanging every 8 steps — and verifies bit-identical results,
// then prints an ASCII snapshot of the expanding ripple.
//
//	go run ./examples/wave2d
package main

import (
	"fmt"
	"math"
	"os"

	brick "github.com/bricklab/brick"
)

const (
	n     = 64 // 2D domain per rank (i,j); k axis is one brick thick
	nk    = 16
	ghost = 8
	steps = 24
)

// run executes the diffusion with the given exchange period and returns
// rank 0's final field.
func run(period int) []float64 {
	st := brick.Star5() // 2D: no k taps
	var out []float64
	world := brick.NewWorld(4)
	world.Run(func(c *brick.Comm) {
		// 2×2 rank grid in (i,j); k is a single periodic rank layer.
		cart := brick.NewCart(c, []int{1, 2, 2}, []bool{true, true, true})
		co := cart.MyCoords()
		dec, err := brick.NewBrickDecomp(brick.Shape{8, 8, 8},
			[3]int{n, n, nk}, ghost, 2, brick.Surface3D())
		if err != nil {
			panic(err)
		}
		storage := dec.Allocate()
		info := dec.BrickInfo()
		ex := brick.NewLayoutExchange(brick.NewExchanger(dec, cart), storage)
		defer ex.Close()

		// A ripple source in the middle of rank 0, constant along k.
		if co[1] == 0 && co[2] == 0 {
			for z := 0; z < nk; z++ {
				for dy := -2; dy <= 2; dy++ {
					for dx := -2; dx <= 2; dx++ {
						r := math.Hypot(float64(dx), float64(dy))
						dec.SetElem(storage, 0, ghost+n/2+dx, ghost+n/2+dy, ghost+z, 100*math.Exp(-r))
					}
				}
			}
		}

		cur := 0
		for s := 0; s < steps; s++ {
			if s%period == 0 {
				ex.Exchange()
			}
			// Ghost-cell expansion: margin shrinks by the radius each step
			// since the last exchange.
			margin := ghost - (s%period+1)*st.Radius
			src := brick.NewBrick(info, storage, cur)
			dst := brick.NewBrick(info, storage, 1-cur)
			brick.ApplyBricks(dst, src, dec, st, margin)
			cur = 1 - cur
		}

		if c.Rank() == 0 {
			out = make([]float64, 0, n*n)
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					out = append(out, dec.Elem(storage, cur, x+ghost, y+ghost, ghost))
				}
			}
		}
	})
	return out
}

func main() {
	everyStep := run(1)
	expanded := run(ghost / brick.Star5().Radius)
	for i := range everyStep {
		if everyStep[i] != expanded[i] {
			fmt.Printf("MISMATCH at %d: %v vs %v\n", i, everyStep[i], expanded[i])
			os.Exit(1)
		}
	}
	fmt.Printf("ghost-cell expansion verified: %d steps with 1 exchange per %d steps\n",
		steps, ghost/brick.Star5().Radius)
	fmt.Printf("communication frequency reduced %dx for bit-identical results\n\n", ghost/brick.Star5().Radius)

	// ASCII snapshot of rank 0 (every other row/col), log intensity.
	shades := []byte(" .:-=+*#%@")
	for y := 0; y < n; y += 2 {
		line := make([]byte, 0, n/2)
		for x := 0; x < n; x += 2 {
			v := everyStep[y*n+x]
			idx := 0
			if v > 1e-12 {
				idx = int(math.Log10(v)+12) * len(shades) / 15
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
				if idx < 0 {
					idx = 0
				}
			}
			line = append(line, shades[idx])
		}
		fmt.Println(string(line))
	}
}
