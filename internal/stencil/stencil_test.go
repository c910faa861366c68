package stencil

import (
	"math"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/layout"
)

func TestStencilDefinitions(t *testing.T) {
	s7 := Star7()
	if len(s7.Points) != 7 || s7.Radius != 1 {
		t.Errorf("Star7: %d points radius %d", len(s7.Points), s7.Radius)
	}
	if s7.Flops() != 13 {
		t.Errorf("Star7 flops = %d", s7.Flops())
	}
	c125 := Cube125()
	if len(c125.Points) != 125 || c125.Radius != 2 {
		t.Errorf("Cube125: %d points radius %d", len(c125.Points), c125.Radius)
	}
	s5 := Star5()
	if len(s5.Points) != 5 {
		t.Errorf("Star5: %d points", len(s5.Points))
	}
	// Coefficients sum to 1: constant fields are fixed points.
	for _, st := range []Stencil{s7, c125, s5} {
		sum := 0.0
		for _, p := range st.Points {
			sum += p.C
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s coefficients sum to %v", st.Name, sum)
		}
	}
	// Cube125 symmetry: coefficient depends only on |offset| multiset.
	coef := map[[3]int]float64{}
	for _, p := range c125.Points {
		key := sorted3(abs(p.DI), abs(p.DJ), abs(p.DK))
		if prev, ok := coef[key]; ok && prev != p.C {
			t.Errorf("Cube125 asymmetric at class %v", key)
		}
		coef[key] = p.C
	}
	if len(coef) != 10 {
		t.Errorf("Cube125 has %d coefficient classes, want 10", len(coef))
	}
}

func TestApplyGridConstantFixedPoint(t *testing.T) {
	src := grid.New([3]int{8, 8, 8}, 2)
	dst := grid.New([3]int{8, 8, 8}, 2)
	for i := range src.Data {
		src.Data[i] = 3.5
	}
	ApplyGrid(dst, src, Star7(), 1)
	for k := 1; k < 19; k++ { // computed region: depth ≤ 1
		v := dst.At(k%10+1, 5, 5)
		if math.Abs(v-3.5) > 1e-12 {
			t.Fatalf("constant field moved: %v", v)
		}
	}
}

func TestApplyGridKnownValue(t *testing.T) {
	// Linear field f = i is a fixed point of any stencil whose coefficients
	// sum to 1 and whose i-moment is zero; Star7 has asymmetric coefficients
	// so compute the expected drift explicitly.
	src := grid.New([3]int{8, 8, 8}, 2)
	dst := grid.New([3]int{8, 8, 8}, 2)
	st := Star7()
	for k := 0; k < 12; k++ {
		for j := 0; j < 12; j++ {
			for i := 0; i < 12; i++ {
				src.Set(i, j, k, float64(i))
			}
		}
	}
	drift := 0.0
	for _, p := range st.Points {
		drift += p.C * float64(p.DI)
	}
	ApplyGrid(dst, src, st, 0)
	if got, want := dst.At(5, 5, 5), 5+drift; math.Abs(got-want) > 1e-12 {
		t.Errorf("linear field: got %v want %v", got, want)
	}
}

func TestApplyGridMarginPanics(t *testing.T) {
	src := grid.New([3]int{8, 8, 8}, 2)
	dst := grid.New([3]int{8, 8, 8}, 2)
	defer func() {
		if recover() == nil {
			t.Error("margin+radius > ghost accepted")
		}
	}()
	ApplyGrid(dst, src, Star7(), 2)
}

func TestApplyGridShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch accepted")
		}
	}()
	ApplyGrid(grid.New([3]int{8, 8, 8}, 2), grid.New([3]int{8, 8, 4}, 2), Star7(), 0)
}

// fillRandomish deterministically fills an extended array.
func fillRandomish(g *grid.Grid) {
	for i := range g.Data {
		x := uint64(i+1) * 0x9E3779B97F4A7C15
		g.Data[i] = float64(x%1000)/997.0 - 0.5
	}
}

// brickVsGrid applies the stencil both ways on identical data and compares
// every computed element.
func brickVsGrid(t *testing.T, st Stencil, dom [3]int, ghost, margin int) {
	t.Helper()
	src := grid.New(dom, ghost)
	dst := grid.New(dom, ghost)
	fillRandomish(src)
	ApplyGrid(dst, src, st, margin)

	dec, err := core.NewBrickDecomp(core.Shape{4, 4, 4}, dom, ghost, 2, layout.Surface3D())
	if err != nil {
		t.Fatal(err)
	}
	bs := dec.Allocate()
	dec.FromArray(bs, 0, src.Data)
	info := dec.BrickInfo()
	bsrc := core.NewBrick(info, bs, 0)
	bdst := core.NewBrick(info, bs, 1)
	ApplyBricks(bdst, bsrc, dec, st, margin)
	out := dec.ToArray(bs, 1)

	g := ghost
	for k := 0; k < src.Ext[2]; k++ {
		for j := 0; j < src.Ext[1]; j++ {
			for i := 0; i < src.Ext[0]; i++ {
				d := depth1(i, g, dom[0])
				if dj := depth1(j, g, dom[1]); dj > d {
					d = dj
				}
				if dk := depth1(k, g, dom[2]); dk > d {
					d = dk
				}
				if d > margin {
					continue // not computed
				}
				want := dst.At(i, j, k)
				got := out[src.Idx(i, j, k)]
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s margin %d at (%d,%d,%d): brick %v grid %v", st.Name, margin, i, j, k, got, want)
				}
			}
		}
	}
}

func TestBrickMatchesGridStar7(t *testing.T) {
	brickVsGrid(t, Star7(), [3]int{16, 16, 16}, 4, 0)
}

func TestBrickMatchesGridStar7Margin(t *testing.T) {
	brickVsGrid(t, Star7(), [3]int{16, 16, 16}, 4, 3)
}

func TestBrickMatchesGridCube125(t *testing.T) {
	brickVsGrid(t, Cube125(), [3]int{16, 16, 16}, 4, 0)
}

func TestBrickMatchesGridCube125Margin(t *testing.T) {
	brickVsGrid(t, Cube125(), [3]int{16, 16, 16}, 4, 2)
}

func TestBrickMatchesGridStar5(t *testing.T) {
	brickVsGrid(t, Star5(), [3]int{16, 16, 16}, 4, 1)
}

func TestBrickMatchesGridAnisotropic(t *testing.T) {
	brickVsGrid(t, Star7(), [3]int{24, 16, 12}, 4, 2)
}

func TestApplyBricksValidation(t *testing.T) {
	dec, err := core.NewBrickDecomp(core.Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 2, layout.Surface3D())
	if err != nil {
		t.Fatal(err)
	}
	bs := dec.Allocate()
	info := dec.BrickInfo()
	a := core.NewBrick(info, bs, 0)
	b := core.NewBrick(info, bs, 1)
	// margin + radius > ghost
	func() {
		defer func() {
			if recover() == nil {
				t.Error("margin overflow accepted")
			}
		}()
		ApplyBricks(b, a, dec, Star7(), 4)
	}()
	// radius > brick extent
	func() {
		defer func() {
			if recover() == nil {
				t.Error("oversized radius accepted")
			}
		}()
		big := Stencil{Name: "r5", Radius: 5, Points: []Point{{5, 0, 0, 1}}}
		ApplyBricks(b, a, dec, big, 0)
	}()
	// the same check keeps a radius-2 table off 1³ bricks: a tap two bricks
	// away has no entry in the kernel's step/loc tables
	func() {
		defer func() {
			if recover() == nil {
				t.Error("radius 2 accepted on extent-1 bricks")
			}
		}()
		dec1, err := core.NewBrickDecomp(core.Shape{1, 1, 1}, [3]int{4, 4, 4}, 2, 2, layout.Surface3D())
		if err != nil {
			t.Fatal(err)
		}
		bs1, info1 := dec1.Allocate(), dec1.BrickInfo()
		ApplyBricks(core.NewBrick(info1, bs1, 1), core.NewBrick(info1, bs1, 0), dec1, Cube125(), 0)
	}()
}

func TestDepth1(t *testing.T) {
	// ghost 4, dom 8: ext coords 0..15.
	cases := []struct{ e, want int }{
		{0, 4}, {3, 1}, {4, 0}, {11, 0}, {12, 1}, {15, 4},
	}
	for _, c := range cases {
		if got := depth1(c.e, 4, 8); got != c.want {
			t.Errorf("depth1(%d) = %d, want %d", c.e, got, c.want)
		}
	}
}

// applyGridTable is the table-driven array loop — one accumulator per
// element, taps in table order — kept as the oracle for applyGridBox.
func applyGridTable(dst, src *grid.Grid, st Stencil, lo, hi [3]int) {
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			for i := lo[0]; i < hi[0]; i++ {
				acc := 0.0
				for _, pt := range st.Points {
					acc += pt.C * src.At(i+pt.DI, j+pt.DJ, k+pt.DK)
				}
				dst.Set(i, j, k, acc)
			}
		}
	}
}

// TestGridKernelMatchesTable is the array-side twin of
// TestKernelMatchesReference: the fused 7-point rows and the eight-wide
// tap rows against the table loop, bit for bit, over full margin boxes, an
// odd-sized region, and the six shell slabs around it.
func TestGridKernelMatchesTable(t *testing.T) { eachBody(t, gridKernelMatchesTable) }

func gridKernelMatchesTable(t *testing.T) {
	dom := [3]int{21, 10, 9} // rows of 21..27: eight-wide chunks plus a tail
	const ghost = 3
	for _, st := range []Stencil{Star7(), Cube125(), Star5(), swappedStar7()} {
		src := grid.New(dom, ghost)
		fillRandomish(src)
		for k := 0; k < 6; k++ { // a -0.0 block: sums must still start at +0.0
			for j := 0; j < 6; j++ {
				for i := 0; i < 12; i++ {
					src.Set(i, j, k, math.Copysign(0, -1))
				}
			}
		}
		check := func(what string, got, want *grid.Grid) {
			t.Helper()
			for p := range want.Data {
				if math.Float64bits(got.Data[p]) != math.Float64bits(want.Data[p]) {
					t.Fatalf("%s %s: element %d is %v, table loop %v", st.Name, what, p, got.Data[p], want.Data[p])
				}
			}
		}
		var rlo, rhi [3]int // the region and shell cases split margin 0 here
		for a := 0; a < 3; a++ {
			rlo[a], rhi[a] = ghost+st.Radius, ghost+dom[a]-st.Radius-1
		}
		for _, margin := range []int{0, 1, ghost - st.Radius} {
			var lo, hi [3]int
			for a := 0; a < 3; a++ {
				lo[a], hi[a] = ghost-margin, ghost+dom[a]+margin
			}
			got, want := grid.New(dom, ghost), grid.New(dom, ghost)
			ApplyGridWorkers(got, src, st, margin, 1)
			applyGridTable(want, src, st, lo, hi)
			check("full", got, want)
			for _, workers := range []int{2, 5} {
				par := grid.New(dom, ghost)
				ApplyGridWorkers(par, src, st, margin, workers)
				check("full, parallel", par, want)
			}
		}
		got, want := grid.New(dom, ghost), grid.New(dom, ghost)
		ApplyGridRegionWorkers(got, src, st, rlo, rhi, 0)
		applyGridTable(want, src, st, rlo, rhi)
		check("region", got, want)
		ApplyGridShellWorkers(got, src, st, 0, rlo, rhi, 0)
		applyGridTable(want, src, st, [3]int{ghost, ghost, ghost}, [3]int{ghost + dom[0], ghost + dom[1], ghost + dom[2]})
		check("region + shell", got, want)
	}
}

// benchBricks times one serial application over a dim³ domain of 8³ bricks
// (ghost 8, the benchmark's decomposition) and reports ns per computed
// element, so the brick and array kernels read off one scale. Source and
// destination are single-field storages, one per time level, as the
// harness's brick ranks keep them.
func benchBricks(b *testing.B, st Stencil, dim, margin int) {
	dec, err := core.NewBrickDecomp(core.Shape{8, 8, 8}, [3]int{dim, dim, dim}, 8, 1, layout.Surface3D())
	if err != nil {
		b.Fatal(err)
	}
	in := dec.Allocate()
	for i := range in.Data {
		in.Data[i] = fillValue(i)
	}
	info := dec.BrickInfo()
	src, dst := core.NewBrick(info, in, 0), core.NewBrick(info, dec.Allocate(), 0)
	e := dim + 2*margin
	b.SetBytes(int64(8 * e * e * e))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyBricksParallel(dst, src, dec, st, margin, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(e*e*e), "ns/elem")
}

func benchGrid(b *testing.B, st Stencil, dim int) {
	src := grid.New([3]int{dim, dim, dim}, 8)
	dst := grid.New([3]int{dim, dim, dim}, 8)
	fillRandomish(src)
	b.SetBytes(int64(8 * dim * dim * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyGridWorkers(dst, src, st, 0, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(dim*dim*dim), "ns/elem")
}

func BenchmarkStar7Bricks64(b *testing.B) {
	eachBody(b, func(b *testing.B) { benchBricks(b, Star7(), 64, 0) })
}

func BenchmarkStar7Bricks64Margin7(b *testing.B) {
	eachBody(b, func(b *testing.B) { benchBricks(b, Star7(), 64, 7) })
}

func BenchmarkStar7Grid64(b *testing.B) {
	eachBody(b, func(b *testing.B) { benchGrid(b, Star7(), 64) })
}

func BenchmarkCube125Bricks32(b *testing.B) {
	eachBody(b, func(b *testing.B) { benchBricks(b, Cube125(), 32, 0) })
}

func BenchmarkCube125Grid32(b *testing.B) {
	eachBody(b, func(b *testing.B) { benchGrid(b, Cube125(), 32) })
}
