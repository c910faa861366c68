package stencil

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/layout"
)

// FuzzBrickBlock checks the AVX2 block fill, fillBlock and rowsBlock (on
// the AVX2 tap rows, and on the AVX-512 ones where the host has them),
// against gather and rows on the Go tapRow, bit for bit under sameBits. Per
// input: a random point table of radius 1–4 with 1–128 taps on 8³ bricks of
// a 16³ domain with ghost 8, random special-value source bits (fuzzBits), a
// margin in 0…ghost−r, and up to eight bricks — always one on the low-i and
// one on the high-i edge of the allocated grid, whose outward i-neighbors are
// missing and, within that margin, unreachable. Both bodies write into
// fields filled with fuzzSentinel, and every element of every brick is
// compared, so a store outside the box fails too.
func FuzzBrickBlock(f *testing.F) {
	if !hostAVX2 {
		f.Skip("no AVX2 body on this host")
	}
	const dim, ghost = 16, 8
	sh := core.Shape{8, 8, 8}
	dec, err := core.NewBrickDecomp(sh, [3]int{dim, dim, dim}, ghost, 3, layout.Surface3D())
	if err != nil {
		f.Fatal(err)
	}
	bs := dec.Allocate()
	info := dec.BrickInfo()
	src, got, want := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1), core.NewBrick(info, bs, 2)
	var edges [2][]int // bricks on the low- and the high-i edge of the grid
	for idx := range dec.NumBricks() {
		switch c := dec.BrickCoord(idx); c[0] {
		case 0:
			edges[0] = append(edges[0], idx)
		case dec.GridDim()[0] - 1:
			edges[1] = append(edges[1], idx)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, nr, ntaps, nmargin, nbricks uint8) {
		vectorBodies(t, func(body string) {
			r := rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
			g := fuzzBits{r, 2 << r.IntN(10)}
			rad := 1 + int(nr)%4
			st := Stencil{Name: "fuzz", Radius: rad, Points: make([]Point, 1+int(ntaps)%128)}
			for p := range st.Points {
				st.Points[p] = Point{r.IntN(2*rad+1) - rad, r.IntN(2*rad+1) - rad, r.IntN(2*rad+1) - rad, g.next()}
			}
			if _, ok := star7Weights(st); ok {
				return // the 7-point bodies are not what this fuzzes
			}
			margin := int(nmargin) % (ghost - rad + 1)
			for b := range dec.NumBricks() {
				in, gf, wf := bs.FieldSlice(b, src.Field), bs.FieldSlice(b, got.Field), bs.FieldSlice(b, want.Field)
				for e := range in {
					in[e], gf[e], wf[e] = g.next(), fuzzSentinel, fuzzSentinel
				}
			}
			kr := newBrickKernel(sh, st)
			blk, halo := make([]float64, kr.haloLen()), make([]float64, kr.haloLen())
			bricks := []int{edges[0][r.IntN(len(edges[0]))], edges[1][r.IntN(len(edges[1]))]}
			for range int(nbricks) % 7 {
				bricks = append(bricks, r.IntN(dec.NumBricks()))
			}
			for _, idx := range bricks {
				lo, hi, ok := brickBox(dec, idx, margin)
				if !ok {
					continue
				}
				bases, ok := kr.loadBases(src, idx, lo, hi)
				if !ok {
					t.Fatalf("radius %d margin %d brick %d: box %v–%v reaches a missing neighbor", rad, margin, idx, lo, hi)
				}
				kr.fillBlock(blk, src, bases, lo, hi)
				kr.rowsBlock(got, idx, blk, lo, hi)
				kr.gather(halo, src, &bases, lo, hi)
				kr.rows(want, idx, halo, lo, hi)
			}
			for b := range dec.NumBricks() {
				gf, wf := bs.FieldSlice(b, got.Field), bs.FieldSlice(b, want.Field)
				for e := range gf {
					if !sameBits(gf[e], wf[e]) {
						t.Fatalf("%s: radius %d, %d taps, margin %d, bricks %v: brick %d (%d,%d,%d) is %#x, gather %#x",
							body, rad, len(st.Points), margin, bricks, b, e%8, e/8%8, e/64, math.Float64bits(gf[e]), math.Float64bits(wf[e]))
					}
				}
			}
		})
	})
}
