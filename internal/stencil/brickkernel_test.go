package stencil

import (
	"math"
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

// countPaths applies st the way applyRange does, brick by brick, and counts
// the body each visit took. Production code never counts: apply's result is
// dropped there.
func countPaths(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int) (n [3]int) {
	kr := kernelFor(dec.Shape(), st)
	halo := make([]float64, kr.ext[0]*kr.ext[1]*kr.ext[2])
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
func TestKernelMatchesReference(t *testing.T) {
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
				want := pathRows
				if st.Name == "7pt" && sh[0] >= 2 { // the fused rows peel two ends
					want = pathFused
				}
				if n[want] == 0 || n[want] != n[0]+n[1]+n[2] {
					t.Errorf("%v %s margin %d: visits fused/rows/fallback = %v, want all on path %d", sh, st.Name, margin, n, want)
				}
			}
		}
	}
}

// torus builds a 3×3×3 periodic neighborhood of bricks of any shape — the
// decomposition only builds cubic ones — with three fields, field 0 filled.
// Brick 0 holds -0.0 throughout: where every tap reads it, only a sum that
// starts from +0.0, as the table walk's does, comes out +0.0.
func torus(sh core.Shape) (*core.BrickInfo, *core.BrickStorage) {
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
			if b == 0 {
				f[e] = math.Copysign(0, -1)
			}
		}
	}
	return info, bs
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
	for _, sh := range []core.Shape{{8, 4, 2}, {2, 3, 5}, {1, 4, 4}, {10, 2, 2}, {8, 8, 8}} {
		for _, st := range []Stencil{Star7(), Cube125(), Star5(), swappedStar7()} {
			if st.Radius > min(sh[0], sh[1], sh[2]) {
				continue
			}
			info, bs := torus(sh)
			src, got, want := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1), core.NewBrick(info, bs, 2)
			kr := newBrickKernel(sh, st)
			halo := make([]float64, kr.ext[0]*kr.ext[1]*kr.ext[2])
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
					kr.apply(got, src, b, lo, hi, halo)
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
								if math.Float64bits(g) != math.Float64bits(acc) || math.Float64bits(w) != math.Float64bits(acc) {
									t.Fatalf("%v %s box %v brick %d (%d,%d,%d): body %v, table walk %v, oracle %v",
										sh, st.Name, box, b, i, j, k, g, w, acc)
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
	info, bs := torus(sh)
	const b = 13
	info.SetAdjacency(b, -1, -1, 0, core.NoBrick)
	src, got := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1)
	lo, hi := [3]int{}, [3]int{4, 4, 4}
	for _, c := range []struct {
		st   Stencil
		want path
	}{{Star7(), pathFused}, {swappedStar7(), pathFallback}, {Star5(), pathFallback}} {
		kr := newBrickKernel(sh, c.st)
		halo := make([]float64, kr.ext[0]*kr.ext[1]*kr.ext[2])
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

// TestBenchmarkShapesStayOffFallback pins what the frozen benchmark's
// workloads execute: on its decompositions (ghost 8, 8³ bricks) and at every
// margin of one exchange period, no brick takes the table walk and every
// 7-point visit takes the fused body.
func TestBenchmarkShapesStayOffFallback(t *testing.T) {
	for _, dim := range []int{16, 32, 64} {
		for _, c := range []struct {
			st      Stencil
			margins []int
			want    path
		}{
			{Star7(), []int{7, 6, 5, 4, 3, 2, 1, 0}, pathFused},
			{Cube125(), []int{6, 4, 2, 0}, pathRows},
		} {
			if dim == 64 && c.want == pathRows && testing.Short() {
				continue
			}
			dec, _, src, dst, _ := kernelSetupShape(t, core.Shape{8, 8, 8}, [3]int{dim, dim, dim}, 8)
			for _, margin := range c.margins {
				n := countPaths(dst, src, dec, c.st, margin)
				if n[pathFallback] != 0 || n[c.want] == 0 || n[c.want] != n[0]+n[1]+n[2] {
					t.Errorf("%d³ %s margin %d: visits fused/rows/fallback = %v", dim, c.st.Name, margin, n)
				}
			}
		}
	}
}

// TestApplyZeroAllocs gates the serial compute step at zero heap
// allocations once the kernel is compiled: no tables, scratch rows or tile
// closures per call. (The frozen benchmark bounds peak RSS at 10%; a kernel
// rebuilt per call moved it 16%.)
func TestApplyZeroAllocs(t *testing.T) {
	for _, st := range []Stencil{Star7(), Cube125()} {
		dec, _, src, dst, _ := kernelSetupShape(t, core.Shape{8, 8, 8}, [3]int{32, 32, 32}, 8)
		inter := dec.Interior()
		if inter.NBricks == 0 {
			t.Fatal("no interior bricks")
		}
		spans := [][2]int{{0, 3}, {5, 9}, {dec.NumBricks() - 2, dec.NumBricks()}}
		gs, gd := grid.New([3]int{16, 16, 16}, 8), grid.New([3]int{16, 16, 16}, 8)
		fillRandomish(gs)
		tilesDone := 0
		onTile := func(int) { tilesDone++ }
		calls := map[string]func(){
			"ApplyBricksParallel margin 0":  func() { ApplyBricksParallel(dst, src, dec, st, 0, 1) },
			"ApplyBricksParallel margin 7":  func() { ApplyBricksParallel(dst, src, dec, st, 8-st.Radius, 1) },
			"ApplyBricksRangeWorkers":       func() { ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.End(), 1) },
			"ApplyBricksRangeWorkers empty": func() { ApplyBricksRangeWorkers(dst, src, dec, st, 0, inter.Start, inter.Start, 1) },
			"ApplyBricksSpans":              func() { ApplyBricksSpans(dst, src, dec, st, 0, spans, 1) },
			"ApplyBricksTiles":              func() { ApplyBricksTiles(dst, src, dec, st, 0, spans, 1, onTile) },
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
