package stencil

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/layout"
)

// kernelSetup builds a 4³-brick decomposition with deterministically-filled
// field 0.
func kernelSetup(t testing.TB, dom [3]int, ghost int) (*core.BrickDecomp, *core.BrickStorage, core.Brick, core.Brick, core.Brick) {
	t.Helper()
	return kernelSetupShape(t, core.Shape{4, 4, 4}, dom, ghost)
}

// fillValue is the deterministic test field.
func fillValue(n int) float64 {
	x := uint64(n+1) * 0x9E3779B97F4A7C15
	return float64(x%997)/991.0 - 0.5
}

func kernelSetupShape(t testing.TB, sh core.Shape, dom [3]int, ghost int) (*core.BrickDecomp, *core.BrickStorage, core.Brick, core.Brick, core.Brick) {
	t.Helper()
	dec, err := core.NewBrickDecomp(sh, dom, ghost, 3, layout.Surface3D())
	if err != nil {
		t.Fatal(err)
	}
	bs := dec.Allocate()
	ext := dec.ExtDim()
	for k := 0; k < ext[2]; k++ {
		for j := 0; j < ext[1]; j++ {
			for i := 0; i < ext[0]; i++ {
				dec.SetElem(bs, 0, i, j, k, fillValue((k*ext[1]+j)*ext[0]+i))
			}
		}
	}
	info := dec.BrickInfo()
	src := core.NewBrick(info, bs, 0)
	a := core.NewBrick(info, bs, 1)
	b := core.NewBrick(info, bs, 2)
	return dec, bs, src, a, b
}

// swappedStar7 is Star7 with the -i and +j taps exchanged: the same taps in
// a different summation order, which the fused 7-point body must not take.
func swappedStar7() Stencil {
	st := Star7()
	st.Name = "7pt-swapped"
	st.Points[1], st.Points[4] = st.Points[4], st.Points[1]
	return st
}

// hostAVX2 and hostAVX512 are the host's useAVX2 and useAVX512, before
// any test flips them.
var hostAVX2, hostAVX512 = useAVX2, useAVX512

// eachBody runs f as subtest (or sub-benchmark) "go" on the pure-Go
// bodies, on a host with AVX2 as "avx2" on its vector bodies, and on a host
// with AVX-512 as "avx512" on their twins, then restores both switches. It
// logs the bodies that ran: a host without AVX-512 runs two.
func eachBody[T interface {
	Run(string, func(T)) bool
	Logf(string, ...any)
}](t T, f func(T)) {
	defer func() { useAVX2, useAVX512 = hostAVX2, hostAVX512 }()
	ran := []string{"go"}
	useAVX2, useAVX512 = false, false
	t.Run("go", f)
	if hostAVX2 {
		useAVX2 = true
		t.Run("avx2", f)
		ran = append(ran, "avx2")
	}
	if hostAVX512 {
		useAVX512 = true
		t.Run("avx512", f)
		ran = append(ran, "avx512")
	}
	t.Logf("bodies run: %v", ran)
}

// vectorBodies runs f once per vector body the host has — AVX2, then
// AVX-512 — with useAVX2 set and useAVX512 as named, logs which ran, and
// restores both switches. It reports whether any ran.
func vectorBodies(t testing.TB, f func(name string)) bool {
	t.Helper()
	defer func() { useAVX2, useAVX512 = hostAVX2, hostAVX512 }()
	var ran []string
	for _, b := range []struct {
		name    string
		on, zmm bool
	}{{"avx2", hostAVX2, false}, {"avx512", hostAVX512, true}} {
		if b.on {
			useAVX2, useAVX512 = true, b.zmm
			f(b.name)
			ran = append(ran, b.name)
		}
	}
	t.Logf("vector bodies run: %v", ran)
	return len(ran) > 0
}

// fused7Path is the path a 7-point visit on shape sh must take under the
// current useAVX2: the vector body is written for 8³ bricks.
func fused7Path(sh core.Shape) path {
	if useAVX2 && sh == (core.Shape{8, 8, 8}) {
		return pathVector
	}
	return pathFused
}

// rowsPath is the path a visit of any other table of radius r on shape sh
// must take under the current useAVX2: the block fill is written for bricks
// eight wide and radii up to four.
func rowsPath(sh core.Shape, r int) path {
	if useAVX2 && sh[0] == 8 && r <= 4 {
		return pathBlock
	}
	return pathRows
}

// pathCounts is visits per path, indexed by path.
type pathCounts [pathBlock + 1]int

// only reports whether every visit, and at least one, took path p.
func (n pathCounts) only(p path) bool {
	total := 0
	for _, c := range n {
		total += c
	}
	return n[p] > 0 && n[p] == total
}

// countPaths applies st the way applyRange does, brick by brick, and counts
// the body each visit took. Production code never counts: apply's result is
// dropped there.
func countPaths(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int) (n pathCounts) {
	kr := kernelFor(dec.Shape(), st)
	halo := make([]float64, kr.haloLen())
	for idx := 0; idx < dec.NumBricks(); idx++ {
		if lo, hi, ok := brickBox(dec, idx, margin); ok {
			n[kr.apply(dst, src, idx, lo, hi, halo)]++
		}
	}
	return n
}

// TestKernelMatchesReference checks the compiled kernels bit for bit against
// the accessor-based oracle: summation order is the contract, so there is no
// tolerance. Margins 1 and ghost-radius give partial boxes on every face.
func TestKernelMatchesReference(t *testing.T) { eachBody(t, kernelMatchesReference) }

func kernelMatchesReference(t *testing.T) {
	for _, sh := range []core.Shape{{4, 4, 4}, {8, 8, 8}, {1, 1, 1}} {
		ghost := max(sh[0], 2)
		dom := [3]int{4 * ghost, 3 * ghost, 2 * ghost}
		for _, st := range []Stencil{Star7(), Cube125(), Star5(), swappedStar7()} {
			if st.Radius > sh[0] {
				continue // checkBrickApply refuses it
			}
			for _, margin := range []int{0, 1, ghost - st.Radius} {
				dec, bs, src, a, b := kernelSetupShape(t, sh, dom, ghost)
				ApplyBricks(a, src, dec, st, margin)
				applyBricksReference(b, src, dec, st, margin)
				ext := dec.ExtDim()
				fa := dec.ToArray(bs, 1)
				fb := dec.ToArray(bs, 2)
				for p := range fa {
					if math.Float64bits(fa[p]) != math.Float64bits(fb[p]) {
						k := p / (ext[0] * ext[1])
						j := (p / ext[0]) % ext[1]
						i := p % ext[0]
						t.Fatalf("%v %s margin %d at (%d,%d,%d): kernel %v reference %v",
							sh, st.Name, margin, i, j, k, fa[p], fb[p])
					}
				}
				n := countPaths(a, src, dec, st, margin)
				want := rowsPath(sh, st.Radius)
				if st.Name == "7pt" && sh[0] >= 2 { // the fused rows peel two ends
					want = fused7Path(sh)
				}
				if !n.only(want) {
					t.Errorf("%v %s margin %d: visits fused/rows/fallback/vector/block = %v, want all on path %d", sh, st.Name, margin, n, want)
				}
			}
		}
	}
}

// torus builds a 3×3×3 periodic neighborhood of bricks of any shape — the
// decomposition only builds cubic ones — with three fields, field 0 filled.
// Brick 0 holds -0.0 throughout: where every tap reads it, only a sum that
// starts from +0.0, as the table walk's does, comes out +0.0. With special,
// about one element in eight of the other bricks is instead -0.0, +Inf,
// -Inf, a quiet NaN or a negative signalling NaN, each with its own payload.
func torus(sh core.Shape, special bool) (*core.BrickInfo, *core.BrickStorage) {
	info := core.NewBrickInfo(sh, 27)
	for b := 0; b < 27; b++ {
		for a := 0; a < core.NumAdj; a++ {
			di, dj, dk := a%3-1, (a/3)%3-1, a/9-1
			n := (b%3+di+3)%3 + (((b/3)%3+dj+3)%3)*3 + ((b/9+dk+3)%3)*9
			info.SetAdjacency(b, di, dj, dk, int32(n))
		}
	}
	bs := core.NewBrickStorage(sh, 27, 3)
	for b := 0; b < 27; b++ {
		for e, f := 0, bs.FieldSlice(b, 0); e < len(f); e++ {
			f[e] = fillValue(b*len(f) + e)
			if x := uint64(b*len(f)+e+1) * 0x9E3779B97F4A7C15; special && x>>61 == 0 {
				f[e] = torusSpecials[(x>>32)%uint64(len(torusSpecials))]
			}
			if b == 0 {
				f[e] = math.Copysign(0, -1)
			}
		}
	}
	return info, bs
}

// torusSpecials are the source values where summation order shows.
var torusSpecials = []float64{
	math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff0_0000_dead_0001),
}

// oracleAt is one element of applyBricksReference: every tap through the
// accessor, summed from 0.0 in table order.
func oracleAt(src core.Brick, st Stencil, b, i, j, k int) float64 {
	acc := 0.0
	for _, pt := range st.Points {
		acc += pt.C * src.At(b, i+pt.DI, j+pt.DJ, k+pt.DK)
	}
	return acc
}

// TestKernelBodiesOnTorus drives the per-brick bodies directly over shapes
// and boxes the decomposition cannot produce — non-cubic bricks, an extent
// of 1, one-element-wide boxes against each face — and checks them bit for
// bit against the accessor oracle and the table walk.
func TestKernelBodiesOnTorus(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		kernelBodiesOnTorus(t, []Stencil{Star7(), Cube125(), Star5(), swappedStar7()}, false)
	})
}

// TestStar7BodiesOnTorusSpecialValues runs the same comparison for the
// 7-point star — brick7Box on an AVX2 host, else the Go fused rows (row7x8,
// row7) — and the table walk, with -0.0, ±Inf and NaN sources. Every
// element must carry the oracle's bits, except that two NaNs match:
// sameBits, the rule FuzzTapRows uses, because which payload survives an
// operation on two NaNs follows the operand order the compiler picks.
func TestStar7BodiesOnTorusSpecialValues(t *testing.T) {
	eachBody(t, func(t *testing.T) { kernelBodiesOnTorus(t, []Stencil{Star7()}, true) })
}

func kernelBodiesOnTorus(t *testing.T, stencils []Stencil, special bool) {
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }
	if special {
		same = sameBits
	}
	for _, sh := range []core.Shape{{8, 4, 2}, {2, 3, 5}, {1, 4, 4}, {10, 2, 2}, {8, 8, 8}} {
		for _, st := range stencils {
			if st.Radius > min(sh[0], sh[1], sh[2]) {
				continue
			}
			info, bs := torus(sh, special)
			src, got, want := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1), core.NewBrick(info, bs, 2)
			kr := newBrickKernel(sh, st)
			halo := make([]float64, kr.haloLen())
			full := [3]int{sh[0], sh[1], sh[2]}
			boxes := [][2][3]int{{{}, full}}
			for a := 0; a < 3; a++ {
				lowFace, highFace, inner := [2][3]int{{}, full}, [2][3]int{{}, full}, [2][3]int{{}, full}
				lowFace[1][a] = 1
				highFace[0][a] = sh[a] - 1
				inner[0][a], inner[1][a] = min(1, sh[a]-1), max(sh[a]-1, 1)
				boxes = append(boxes, lowFace, highFace, inner)
			}
			for _, box := range boxes {
				lo, hi := box[0], box[1]
				for b := 0; b < 27; b++ {
					wantPath := rowsPath(sh, st.Radius)
					if kr.star7 {
						wantPath = fused7Path(sh)
					}
					if p := kr.apply(got, src, b, lo, hi, halo); p != wantPath {
						t.Fatalf("%v %s box %v brick %d: took path %d, want %d", sh, st.Name, box, b, p, wantPath)
					}
					bases, ok := kr.loadBases(src, b, lo, hi)
					if !ok {
						t.Fatalf("%v: torus brick %d reports a missing neighbor", sh, b)
					}
					kr.run(want, src, b, &bases, lo, hi)
					for k := lo[2]; k < hi[2]; k++ {
						for j := lo[1]; j < hi[1]; j++ {
							for i := lo[0]; i < hi[0]; i++ {
								acc := oracleAt(src, st, b, i, j, k)
								g, w := got.At(b, i, j, k), want.At(b, i, j, k)
								if !same(g, acc) || !same(w, acc) {
									t.Fatalf("%v %s box %v brick %d (%d,%d,%d): body %v (%#x), table walk %v (%#x), oracle %v (%#x)",
										sh, st.Name, box, b, i, j, k, g, math.Float64bits(g), w, math.Float64bits(w), acc, math.Float64bits(acc))
								}
							}
						}
					}
				}
			}
			if wantFused := st.Name == "7pt" && sh[0] >= 2; kr.star7 != wantFused {
				t.Errorf("%v %s: fused body selected = %v, want %v", sh, st.Name, kr.star7, wantFused)
			}
		}
	}
}

// TestKernelFallbackOnMissingNeighbor: a box that can reach a missing
// neighbor takes the table walk, which reads only what the taps name. With
// one diagonal neighbor gone the star stencils still compute (they never
// read diagonals); the fused body, which looks up faces only, stays fused.
func TestKernelFallbackOnMissingNeighbor(t *testing.T) {
	sh := core.Shape{4, 4, 4}
	info, bs := torus(sh, false)
	const b = 13
	info.SetAdjacency(b, -1, -1, 0, core.NoBrick)
	src, got := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1)
	lo, hi := [3]int{}, [3]int{4, 4, 4}
	for _, c := range []struct {
		st   Stencil
		want path
	}{{Star7(), pathFused}, {swappedStar7(), pathFallback}, {Star5(), pathFallback}} {
		kr := newBrickKernel(sh, c.st)
		halo := make([]float64, kr.haloLen())
		if p := kr.apply(got, src, b, lo, hi, halo); p != c.want {
			t.Errorf("%s: took path %d, want %d", c.st.Name, p, c.want)
		}
		for k := 0; k < 4; k++ {
			for j := 0; j < 4; j++ {
				for i := 0; i < 4; i++ {
					acc := oracleAt(src, c.st, b, i, j, k)
					if g := got.At(b, i, j, k); math.Float64bits(g) != math.Float64bits(acc) {
						t.Fatalf("%s (%d,%d,%d): %v, oracle %v", c.st.Name, i, j, k, g, acc)
					}
				}
			}
		}
	}
	// A missing face the box touches sends the fused body to the walk too,
	// and a box that stays clear of it does not.
	info.SetAdjacency(b, 0, 1, 0, core.NoBrick)
	kr := newBrickKernel(sh, Star7())
	if kr.fused7(got, src, b, lo, hi) {
		t.Error("fused body ran against a missing +j face")
	}
	if !kr.fused7(got, src, b, lo, [3]int{4, 3, 4}) {
		t.Error("fused body refused a box clear of the missing face")
	}
}

// TestStar7BoxConfinement applies Star7 on 8³ bricks at margins 7…0 — down
// to boxes one element wide against each face — into a field filled with a
// NaN sentinel, with the source beyond each margin's footprint a second NaN.
// Afterwards every element of the storage outside the margin keeps its bits
// and every element inside carries the oracle's: a store outside a box, or
// a computed lane that reads a row the stencil does not reach, fails here.
// The first domain brick's source is -0.0, so an output whose taps all read
// it is +0.0 only if its sum starts from +0.0.
func TestStar7BoxConfinement(t *testing.T) {
	eachBody(t, func(t *testing.T) { boxConfinement(t, Star7(), fused7Path(core.Shape{8, 8, 8})) })
}

// TestCube125BoxConfinement is TestStar7BoxConfinement for the tap rows, at
// margins 6…0: the odd margins give i-boxes one to seven lanes wide, which
// the vector body stores through masks.
func TestCube125BoxConfinement(t *testing.T) {
	eachBody(t, func(t *testing.T) { boxConfinement(t, Cube125(), rowsPath(core.Shape{8, 8, 8}, 2)) })
}

// TestCube125BlockPathEveryBox: under AVX2, Cube125 on an 8³ brick takes the
// block fill for every box a visit can have — each i-range [lo0, hi0) with
// the full j and k extents, which moves the store mask over every lane, and
// each pair of j- and k-ranges with the full i extent, which moves the rows
// and planes fillBlock copies — and matches the table walk under sameBits
// over the special-value torus.
func TestCube125BlockPathEveryBox(t *testing.T) {
	if !hostAVX2 {
		t.Skip("no AVX2 body on this host")
	}
	sh := core.Shape{8, 8, 8}
	info, bs := torus(sh, true)
	src, got, want := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1), core.NewBrick(info, bs, 2)
	kr := newBrickKernel(sh, Cube125())
	halo := make([]float64, kr.haloLen())
	var ranges [][2]int
	for lo := 0; lo < 8; lo++ {
		for hi := lo + 1; hi <= 8; hi++ {
			ranges = append(ranges, [2]int{lo, hi})
		}
	}
	var boxes [][2][3]int
	for _, x := range ranges {
		boxes = append(boxes, [2][3]int{{x[0], 0, 0}, {x[1], 8, 8}})
	}
	for _, y := range ranges {
		for _, z := range ranges {
			boxes = append(boxes, [2][3]int{{0, y[0], z[0]}, {8, y[1], z[1]}})
		}
	}
	const b = 13 // the torus centre
	for _, box := range boxes {
		lo, hi := box[0], box[1]
		if p := kr.apply(got, src, b, lo, hi, halo); p != pathBlock {
			t.Fatalf("box %v: took path %d, want the block fill (%d)", box, p, pathBlock)
		}
		bases, _ := kr.loadBases(src, b, lo, hi)
		kr.run(want, src, b, &bases, lo, hi)
		for k := lo[2]; k < hi[2]; k++ {
			for j := lo[1]; j < hi[1]; j++ {
				for i := lo[0]; i < hi[0]; i++ {
					if g, w := got.At(b, i, j, k), want.At(b, i, j, k); !sameBits(g, w) {
						t.Fatalf("box %v (%d,%d,%d): block %#x, table walk %#x", box, i, j, k, math.Float64bits(g), math.Float64bits(w))
					}
				}
			}
		}
	}
}

func boxConfinement(t *testing.T, st Stencil, wantPath path) {
	for margin := 8 - st.Radius; margin >= 0; margin-- {
		confineMargin(t, st, margin, wantPath)
	}
}

// confineMargin is one margin of the box confinement tests on a 16³ domain, ghost
// 8, of 8³ bricks.
func confineMargin(t *testing.T, st Stencil, margin int, wantPath path) {
	const dim, ghost = 16, 8
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	poison := math.Float64frombits(0x7ff8_0bad_f00d_0002)
	dec, bs, src, dst, _ := kernelSetupShape(t, core.Shape{8, 8, 8}, [3]int{dim, dim, dim}, ghost)
	depth := func(e [3]int) int {
		return max(depth1(e[0], ghost, dim), depth1(e[1], ghost, dim), depth1(e[2], ghost, dim))
	}
	ext := dec.ExtDim()
	for k := 0; k < ext[2]; k++ {
		for j := 0; j < ext[1]; j++ {
			for i := 0; i < ext[0]; i++ {
				e := [3]int{i, j, k}
				switch {
				case depth(e) > margin+st.Radius:
					dec.SetElem(bs, 0, i, j, k, poison)
				case i >= ghost && i < ghost+8 && j >= ghost && j < ghost+8 && k >= ghost && k < ghost+8:
					dec.SetElem(bs, 0, i, j, k, math.Copysign(0, -1))
				}
			}
		}
	}
	for b := 0; b < dec.NumBricks(); b++ {
		for f := 1; f < bs.Fields; f++ {
			for e, field := 0, bs.FieldSlice(b, f); e < len(field); e++ {
				field[e] = sentinel
			}
		}
	}
	before := append([]float64(nil), bs.Data...)

	if n := countPaths(dst, src, dec, st, margin); !n.only(wantPath) {
		t.Fatalf("%s margin %d: visits fused/rows/fallback/vector/block = %v, want all on path %d", st.Name, margin, n, wantPath)
	}

	for p, v := range bs.Data {
		b, f, e := p/bs.Chunk(), p%bs.Chunk()/bs.Vol(), p%bs.Vol()
		i, j, k := e%8, (e/8)%8, e/64
		want := before[p]
		if b < dec.NumBricks() && f == dst.Field {
			if c := dec.BrickCoord(b); c[0] >= 0 && depth([3]int{c[0]*8 + i, c[1]*8 + j, c[2]*8 + k}) <= margin {
				want = oracleAt(src, st, b, i, j, k)
			}
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s margin %d brick %d field %d (%d,%d,%d): %v (bits %#x), want bits %#x",
				st.Name, margin, b, f, i, j, k, v, math.Float64bits(v), math.Float64bits(want))
		}
	}
}

// TestBenchmarkShapesStayOffFallback pins what the frozen benchmark's
// workloads execute: on its decompositions (ghost 8, 8³ bricks) and at every
// margin of one exchange period, no brick takes the table walk, every
// 7-point visit takes the fused body and every 125-point visit the tap
// rows — the vector ones on an AVX2 host.
func TestBenchmarkShapesStayOffFallback(t *testing.T) { eachBody(t, benchmarkShapesStayOffFallback) }

func benchmarkShapesStayOffFallback(t *testing.T) {
	for _, dim := range []int{16, 32, 64} {
		for _, c := range []struct {
			st      Stencil
			margins []int
			want    path
		}{
			{Star7(), []int{7, 6, 5, 4, 3, 2, 1, 0}, fused7Path(core.Shape{8, 8, 8})},
			{Cube125(), []int{6, 4, 2, 0}, rowsPath(core.Shape{8, 8, 8}, 2)},
		} {
			if dim == 64 && c.st.Name == "125pt" && testing.Short() {
				continue
			}
			dec, _, src, dst, _ := kernelSetupShape(t, core.Shape{8, 8, 8}, [3]int{dim, dim, dim}, 8)
			for _, margin := range c.margins {
				n := countPaths(dst, src, dec, c.st, margin)
				if !n.only(c.want) {
					t.Errorf("%d³ %s margin %d: visits fused/rows/fallback/vector/block = %v, want all on path %d", dim, c.st.Name, margin, n, c.want)
				}
			}
		}
	}
}

// TestApplyZeroAllocs gates the serial compute step at zero heap
// allocations once the kernel is compiled: no tables, scratch rows or tile
// closures per call. (The frozen benchmark bounds peak RSS at 10%; a kernel
// rebuilt per call moved it 16%.)
func TestApplyZeroAllocs(t *testing.T) { eachBody(t, applyZeroAllocs) }

func applyZeroAllocs(t *testing.T) {
	for _, st := range []Stencil{Star7(), Cube125()} {
		dec, _, src, dst, _ := kernelSetupShape(t, core.Shape{8, 8, 8}, [3]int{32, 32, 32}, 8)
		inter := dec.Interior()
		if inter.NBricks == 0 {
			t.Fatal("no interior bricks")
		}
		spans := [][2]int{{0, 3}, {5, 9}, {dec.NumBricks() - 2, dec.NumBricks()}}
		gs, gd := grid.New([3]int{16, 16, 16}, 8), grid.New([3]int{16, 16, 16}, 8)
		fillRandomish(gs)
		calls := map[string]func(){
			"ApplyBricksParallel margin 0":  func() { ApplyBricksParallel(dst, src, dec, st, 0, 1) },
			"ApplyBricksParallel margin 7":  func() { ApplyBricksParallel(dst, src, dec, st, 8-st.Radius, 1) },
			"ApplyBricksRangeWorkers":       func() { ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.End(), 1) },
			"ApplyBricksRangeWorkers empty": func() { ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.Start, 1) },
			"ApplyBricksSpans":              func() { ApplyBricksSpans(dst, src, dec, st, 0, spans, 1) },
			"ApplyGridWorkers":              func() { ApplyGridWorkers(gd, gs, st, 8-st.Radius, 1) },
		}
		for name, call := range calls {
			call() // warm: compiles the kernel, starts the pool
			if n := testing.AllocsPerRun(5, call); n != 0 {
				t.Errorf("%s %s: %v allocs per call, want 0", st.Name, name, n)
			}
		}
	}
}

// TestVectorBodiesStayVEX fails on any legacy-SSE instruction in the
// vector bodies, every *_amd64.s file — MOVQ into an XMM register, MOVUPD,
// MULPD, MOVSD and the like: after their YMM or ZMM writes each costs an
// AVX–SSE transition per call, which measured ~200 ns (DESIGN.md §5.12).
// Every instruction that names an X, Y or Z register must be VEX- or
// EVEX-encoded, V-prefixed: VMOVQ, VMOVUPD, VMULPD.
func TestVectorBodiesStayVEX(t *testing.T) {
	for _, c := range []struct {
		line   string
		legacy bool
	}{
		{"MOVQ AX, X0", true}, {"\tMOVUPD (SI), X1", true}, {"MOVUPS X2, 32(DI)", true},
		{"MOVAPD X1, X2", true}, {"MULPD X1, X2", true}, {"ADDPD X3, X4; \\", true},
		{"MOVSD X0, (DI)", true}, {"VADDPD Y4, Y2, Y2; ADDPD X1, X2", true},
		{"VMOVQ AX, X0", false}, {"VMOVUPD 32(R8)(R9*8), Y0", false}, {"MOVQ AX, R9", false},
		{"// MOVUPD X1, X2", false}, {"LEAQ (SI)(R8*8), R8", false}, {"TAP(R9, Y0, Y1)", false},
		{"VALIGNQ $7, (R8), Z0, Z4", false}, {"KMOVW AX, K1", false}, {"MOVUPD Z1, (DI)", true},
	} {
		if got := legacySSE(c.line) != ""; got != c.legacy {
			t.Fatalf("legacySSE(%q) flags it: %v, want %v", c.line, got, c.legacy)
		}
	}
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) < 2 {
		t.Fatalf("found the assembly files %v (%v), want the AVX2 and the AVX-512 bodies", files, err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(src), "\n") {
			if op := legacySSE(line); op != "" {
				t.Errorf("%s:%d: %s: use V%s", name, n+1, strings.TrimSpace(line), op)
			}
		}
	}
}

var (
	simdReg  = regexp.MustCompile(`\b[XYZ]\d+\b`)
	mnemonic = regexp.MustCompile(`^\s*([A-Z][A-Z0-9]*)(\s|$)`)
)

// legacySSE returns the mnemonic of the first instruction on an assembly
// line that names an X, Y or Z register without a V prefix, or "". A line may
// hold several instructions separated by ';', as a macro body does; a
// macro's use, NAME(args), is checked where the macro is defined.
func legacySSE(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	for _, ins := range strings.Split(strings.TrimSuffix(strings.TrimSpace(line), "\\"), ";") {
		m := mnemonic.FindStringSubmatch(ins)
		if m != nil && !strings.HasPrefix(m[1], "V") && simdReg.MatchString(ins[len(m[0]):]) {
			return m[1]
		}
	}
	return ""
}

func TestKernelTables(t *testing.T) {
	kr := newBrickKernel(core.Shape{4, 4, 4}, Star7())
	// coordinate -1 (index 0 with r=1) steps to -1 neighbor, local 3.
	if kr.step[0][0] != -1 || kr.loc[0][0] != 3 {
		t.Errorf("low edge: step %d loc %d", kr.step[0][0], kr.loc[0][0])
	}
	// coordinate 4 (index 5) steps to +1 neighbor, local 0.
	if kr.step[0][5] != 1 || kr.loc[0][5] != 0 {
		t.Errorf("high edge: step %d loc %d", kr.step[0][5], kr.loc[0][5])
	}
	// interior coordinate 2 (index 3) stays.
	if kr.step[0][3] != 0 || kr.loc[0][3] != 2 {
		t.Errorf("interior: step %d loc %d", kr.step[0][3], kr.loc[0][3])
	}
}

func BenchmarkBrickKernelVsReference(b *testing.B) {
	dom := [3]int{32, 32, 32}
	for _, mode := range []string{"kernel", "reference"} {
		b.Run(mode, func(b *testing.B) {
			dec, _, src, dst, _ := kernelSetup(b, dom, 4)
			st := Star7()
			b.SetBytes(int64(8 * dom[0] * dom[1] * dom[2]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "kernel" {
					ApplyBricks(dst, src, dec, st, 0)
				} else {
					applyBricksReference(dst, src, dec, st, 0)
				}
			}
		})
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		dec, bs, src, a, b := kernelSetup(t, [3]int{16, 16, 16}, 4)
		st := Star7()
		ApplyBricks(a, src, dec, st, 3)
		ApplyBricksParallel(b, src, dec, st, 3, workers)
		fa := dec.ToArray(bs, 1)
		fb := dec.ToArray(bs, 2)
		for p := range fa {
			if fa[p] != fb[p] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, p, fa[p], fb[p])
			}
		}
	}
}

func TestParallelValidation(t *testing.T) {
	dec, _, src, a, _ := kernelSetup(t, [3]int{16, 16, 16}, 4)
	defer func() {
		if recover() == nil {
			t.Error("margin overflow accepted")
		}
	}()
	ApplyBricksParallel(a, src, dec, Star7(), 4, 2)
}
