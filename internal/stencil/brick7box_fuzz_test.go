package stencil

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/bricklab/brick/internal/core"
)

// FuzzBrick7Box checks the vector 7-point bodies — brick7Box, and its
// AVX-512 twin brick7BoxZ where the host has it — against the Go fused7
// bit for bit under sameBits. Per input: the centre brick of the 3×3×3
// torus of 8³ bricks, a random box [lo, hi) of it, random weights and
// source bits (fuzzBits), and for each face the box does not touch a
// neighbour that is the real brick or, as fused7 passes it, the centre
// itself. The bodies write into a field filled with fuzzSentinel and every
// element of the brick compares, so a store outside the box fails too.
func FuzzBrick7Box(f *testing.F) {
	if !hostAVX2 {
		f.Skip("no AVX2 body on this host")
	}
	sh := core.Shape{8, 8, 8}
	info, bs := torus(sh, false)
	src, got, want := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1), core.NewBrick(info, bs, 2)
	const b = 13 // the torus centre
	bodies := []struct {
		name string
		on   bool
		box  func(d, c *[512]float64, nb *[6]*[512]float64, w *[7]float64, lo0, hi0, lo1, hi1, lo2, hi2 int)
	}{{"avx2", hostAVX2, brick7Box}, {"avx512", hostAVX512, brick7BoxZ}}
	for _, body := range bodies {
		if body.on {
			f.Logf("vector body %s runs", body.name)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, x0, nx, y0, ny, z0, nz, alias uint8) {
		r := rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
		g := fuzzBits{r, 2 << r.IntN(10)}
		st := Star7()
		for p := range st.Points {
			st.Points[p].C = g.next()
		}
		for n := range 27 {
			in, gf, wf := bs.FieldSlice(n, src.Field), bs.FieldSlice(n, got.Field), bs.FieldSlice(n, want.Field)
			for e := range in {
				in[e], gf[e], wf[e] = g.next(), fuzzSentinel, fuzzSentinel
			}
		}
		var lo, hi [3]int
		for a, v := range [3][2]uint8{{x0, nx}, {y0, ny}, {z0, nz}} {
			lo[a] = int(v[0]) % 8
			hi[a] = lo[a] + 1 + int(v[1])%(8-lo[a])
		}
		kr := newBrickKernel(sh, st)
		defer func() { useAVX2 = hostAVX2 }()
		useAVX2 = false
		if !kr.fused7(want, src, b, lo, hi) {
			t.Fatalf("box %v–%v: the Go fused7 found a face neighbour missing", lo, hi)
		}
		s, chunk := bs.Data, bs.Chunk()
		self := b*chunk + src.FieldBase()
		var nbp [6]*[512]float64
		for f := range nbp {
			a, dir := f/2, star7Taps[f+1]
			o := self
			if (dir[a] < 0 && lo[a] == 0) || (dir[a] > 0 && hi[a] == 8) || alias>>f&1 == 1 {
				o = int(info.Adjacent(b, dir[0], dir[1], dir[2]))*chunk + src.FieldBase()
			}
			nbp[f] = (*[512]float64)(s[o:])
		}
		gf, wf := bs.FieldSlice(b, got.Field), bs.FieldSlice(b, want.Field)
		for _, body := range bodies {
			if !body.on {
				continue
			}
			for e := range gf {
				gf[e] = fuzzSentinel
			}
			body.box((*[512]float64)(gf), (*[512]float64)(s[self:]), &nbp, &kr.w7, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
			for e := range gf {
				if !sameBits(gf[e], wf[e]) {
					t.Fatalf("%s: box %v–%v, aliases %06b: (%d,%d,%d) is %#x, fused7 %#x",
						body.name, lo, hi, alias, e%8, e/8%8, e/64, math.Float64bits(gf[e]), math.Float64bits(wf[e]))
				}
			}
		}
	})
}
