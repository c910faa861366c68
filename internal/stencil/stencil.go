// Package stencil defines the stencil operators of the paper's evaluation —
// the 7-point star (low arithmetic intensity) and the 5³ 125-point cube with
// 10 symmetry-unique coefficients (high arithmetic intensity) — and applies
// them to both lexicographic grids and brick storage. Application takes a
// margin parameter implementing ghost-cell expansion: margin m computes
// every element within m of the domain (redundant work inside the ghost
// zone), which lets a ghost zone of width G amortize one exchange across
// G/radius timesteps.
package stencil

import (
	"fmt"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/grid"
)

// Point is one stencil tap: an offset and its coefficient.
type Point struct {
	DI, DJ, DK int
	C          float64
}

// Stencil is a constant-coefficient stencil operator.
type Stencil struct {
	Name   string
	Radius int
	Points []Point
}

// Flops returns floating-point operations per output element (one multiply
// and one add per tap, minus the first add).
func (s Stencil) Flops() int { return 2*len(s.Points) - 1 }

// Star7 returns the canonical 7-point star stencil with distinct
// coefficients per direction (distinct values catch axis mix-ups in
// kernels); the coefficients sum to 1, so a constant field is a fixed point.
func Star7() Stencil {
	return Stencil{
		Name:   "7pt",
		Radius: 1,
		Points: []Point{
			{0, 0, 0, 0.25},
			{-1, 0, 0, 0.0833}, {1, 0, 0, 0.1},
			{0, -1, 0, 0.1167}, {0, 1, 0, 0.15},
			{0, 0, -1, 0.1333}, {0, 0, 1, 0.1667},
		},
	}
}

// Cube125 returns the 5³ cube stencil with 10 coefficients unique up to
// symmetry (the multiset of |di|,|dj|,|dk| picks the coefficient), matching
// the paper's high-arithmetic-intensity proxy. Coefficients are normalized
// to sum to 1.
func Cube125() Stencil {
	classes := map[[3]int]int{}
	idx := 0
	for a := 0; a <= 2; a++ {
		for b := a; b <= 2; b++ {
			for c := b; c <= 2; c++ {
				classes[[3]int{a, b, c}] = idx
				idx++
			}
		}
	}
	// Deterministic per-class weights, then normalize.
	weights := make([]float64, idx)
	for i := range weights {
		weights[i] = 1.0 / float64(1+i*i)
	}
	var pts []Point
	sum := 0.0
	for dk := -2; dk <= 2; dk++ {
		for dj := -2; dj <= 2; dj++ {
			for di := -2; di <= 2; di++ {
				key := sorted3(abs(di), abs(dj), abs(dk))
				w := weights[classes[key]]
				pts = append(pts, Point{di, dj, dk, w})
				sum += w
			}
		}
	}
	for i := range pts {
		pts[i].C /= sum
	}
	return Stencil{Name: "125pt", Radius: 2, Points: pts}
}

// Star5 returns a 2D 5-point star in the i-j plane (the paper's low-order
// example motivating ghost-cell expansion).
func Star5() Stencil {
	return Stencil{
		Name:   "5pt",
		Radius: 1,
		Points: []Point{
			{0, 0, 0, 0.4},
			{-1, 0, 0, 0.12}, {1, 0, 0, 0.14},
			{0, -1, 0, 0.16}, {0, 1, 0, 0.18},
		},
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sorted3(a, b, c int) [3]int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int{a, b, c}
}

// ApplyGrid applies the stencil to every extended element within margin of
// the domain, reading src and writing dst (distinct grids of equal shape).
// margin+Radius must not exceed the ghost width. Work is divided over the
// default worker pool (ResolveWorkers(0) workers).
func ApplyGrid(dst, src *grid.Grid, st Stencil, margin int) {
	ApplyGridWorkers(dst, src, st, margin, 0)
}

// ApplyGridWorkers is ApplyGrid with an explicit worker count (<= 0 resolves
// to GOMAXPROCS).
func ApplyGridWorkers(dst, src *grid.Grid, st Stencil, margin, workers int) {
	if dst.Ext != src.Ext || dst.Ghost != src.Ghost {
		panic("stencil: grid shape mismatch")
	}
	if margin+st.Radius > src.Ghost {
		panic(fmt.Sprintf("stencil: margin %d + radius %d exceeds ghost %d", margin, st.Radius, src.Ghost))
	}
	g := src.Ghost
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = g-margin, g+src.Dom[a]+margin
	}
	applyGridBox(dst, src, st, lo, hi, workers)
}

// ApplyGridRegionWorkers applies the stencil over an explicit extended-
// coordinate box [lo, hi) with the given worker count (<= 0 resolves to
// GOMAXPROCS). The caller guarantees the stencil footprint stays inside the
// extended array. Used by the overlapped implementations to compute the
// ghost-independent interior while communication is in flight.
func ApplyGridRegionWorkers(dst, src *grid.Grid, st Stencil, lo, hi [3]int, workers int) {
	applyGridBox(dst, src, st, lo, hi, workers)
}

// applyGridBox runs the stencil over the extended box [lo, hi), tiling the
// (k, j) rows of the box into contiguous slabs across the worker pool. Rows
// are contiguous in memory along i, so each tile is a cache-friendly sweep;
// every output element belongs to exactly one tile, so workers never write
// the same element.
func applyGridBox(dst, src *grid.Grid, st Stencil, lo, hi [3]int, workers int) {
	if hi[0] <= lo[0] || hi[1] <= lo[1] || hi[2] <= lo[2] {
		return
	}
	rows := (hi[2] - lo[2]) * (hi[1] - lo[1])
	p := DefaultPool()
	if workers = ResolveWorkers(workers); workers == 1 || rows == 1 {
		t0 := p.tileStart()
		applyGridRows(dst, src, st, lo, hi, 0, rows)
		p.tileDone(t0)
		return
	}
	p.ForRange(workers, rows, func(rlo, rhi int) {
		applyGridRows(dst, src, st, lo, hi, rlo, rhi)
	})
}

// applyGridRows computes rows [rlo, rhi) of the box [lo, hi), rows numbered
// j-fastest. The canonical 7-point table takes the fused row7 expression,
// on an AVX2 host after row7x4 has computed the row's first width &^ 3
// elements four at a time, and on an AVX-512 host row7x8Z computes the
// whole row; any other table is flattened to offsets (on
// this frame's stack, so a call allocates nothing) and run through
// tapRows: on an AVX2 host up to four rows of one plane at once, eight
// elements at a time, with tapRow finishing each row's width % 8 tail.
func applyGridRows(dst, src *grid.Grid, st Stencil, lo, hi [3]int, rlo, rhi int) {
	sj, sk := src.Ext[0], src.Ext[0]*src.Ext[1]
	nj, width := hi[1]-lo[1], hi[0]-lo[0]
	s := src.Data
	if w, ok := star7Weights(st); ok {
		n4 := 0 // elements per row the vector body computes
		if useAVX2 {
			n4 = width &^ 3
			if useAVX512 {
				n4 = width
			}
		}
		for r := rlo; r < rhi; r++ {
			at := src.Idx(lo[0], lo[1]+r%nj, lo[2]+r/nj)
			if n4 > 0 {
				// Direct calls: through a func value the arguments would escape.
				out, c, jm, jp, km, kp := dst.Data[at:at+n4], s[at-1:at+n4+1], s[at-sj:][:n4], s[at+sj:][:n4], s[at-sk:][:n4], s[at+sk:][:n4]
				if useAVX512 {
					row7x8Z(out, c, jm, jp, km, kp, &w)
				} else {
					row7x4(out, c, jm, jp, km, kp, &w)
				}
			}
			x := at + n4
			row7(dst.Data[x:at+width], s[x:], s[x-sj:], s[x+sj:], s[x-sk:], s[x+sk:], s[x-1], s[at+width], &w)
		}
		return
	}
	var offBuf [128]int
	var cBuf [128]float64
	t := tapTable(offBuf[:0], cBuf[:0], st.Points, sj, sk)
	n8 := 0 // elements per row tapRows computes
	if useAVX2 {
		n8 = width &^ 7
	}
	for r := rlo; r < rhi; {
		at := src.Idx(lo[0], lo[1]+r%nj, lo[2]+r/nj)
		n := min(4, rhi-r, nj-r%nj) // rows of this plane in the group
		for x := 0; x < n8; x += 8 {
			tapRows(dst.Data[at+x:], sj, s, at+x, sj, n, &t, 0, 8)
		}
		for q := range n {
			a := at + q*sj + n8
			tapRow(dst.Data[a:at+q*sj+width], s, a, &t)
		}
		r += n
	}
}

// star7Taps is the canonical 7-point tap order; taps 1..6 double as the six
// face directions.
var star7Taps = [7][3]int{{0, 0, 0}, {-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}

// star7Weights reports whether st is the 7-point star in canonical tap
// order — centre, -i, +i, -j, +j, -k, +k at radius 1, the order row7 sums
// in — and returns its coefficients in that order.
func star7Weights(st Stencil) (w [7]float64, ok bool) {
	if st.Radius != 1 || len(st.Points) != len(star7Taps) {
		return w, false
	}
	for p, pt := range st.Points {
		if [3]int{pt.DI, pt.DJ, pt.DK} != star7Taps[p] {
			return w, false
		}
		w[p] = pt.C
	}
	return w, true
}

// row7 writes one row of the canonical 7-point star: out[x] from the centre
// row c and its ±j / ±k rows at the same x, with left and right standing in
// for c[-1] and c[len(out)]. The sum is written out in point-table order,
// starting from 0.0, exactly as the table-driven loops accumulate it.
func row7(out, c, jm, jp, km, kp []float64, left, right float64, w *[7]float64) {
	n := len(out)
	if n == 0 {
		return
	}
	c, jm, jp, km, kp = c[:n], jm[:n], jp[:n], km[:n], kp[:n]
	w0, w1, w2, w3, w4, w5, w6 := w[0], w[1], w[2], w[3], w[4], w[5], w[6]
	prev := left
	for x := 0; x < n-1; x++ {
		cur := c[x]
		out[x] = 0.0 + w0*cur + w1*prev + w2*c[x+1] + w3*jm[x] + w4*jp[x] + w5*km[x] + w6*kp[x]
		prev = cur
	}
	x := n - 1
	out[x] = 0.0 + w0*c[x] + w1*prev + w2*right + w3*jm[x] + w4*jp[x] + w5*km[x] + w6*kp[x]
}

// row7x8 is row7 for a row of exactly eight elements — every full row of
// the paper's 8³ bricks — spelled out so that array pointers carry the
// bounds and the call passes in registers; per brick row that is a fifth
// off the 7-point brick kernel.
func row7x8(o, c, jm, jp, km, kp *[8]float64, l, r float64, w *[7]float64) {
	w0, w1, w2, w3, w4, w5, w6 := w[0], w[1], w[2], w[3], w[4], w[5], w[6]
	o[0] = 0.0 + w0*c[0] + w1*l + w2*c[1] + w3*jm[0] + w4*jp[0] + w5*km[0] + w6*kp[0]
	o[1] = 0.0 + w0*c[1] + w1*c[0] + w2*c[2] + w3*jm[1] + w4*jp[1] + w5*km[1] + w6*kp[1]
	o[2] = 0.0 + w0*c[2] + w1*c[1] + w2*c[3] + w3*jm[2] + w4*jp[2] + w5*km[2] + w6*kp[2]
	o[3] = 0.0 + w0*c[3] + w1*c[2] + w2*c[4] + w3*jm[3] + w4*jp[3] + w5*km[3] + w6*kp[3]
	o[4] = 0.0 + w0*c[4] + w1*c[3] + w2*c[5] + w3*jm[4] + w4*jp[4] + w5*km[4] + w6*kp[4]
	o[5] = 0.0 + w0*c[5] + w1*c[4] + w2*c[6] + w3*jm[5] + w4*jp[5] + w5*km[5] + w6*kp[5]
	o[6] = 0.0 + w0*c[6] + w1*c[5] + w2*c[7] + w3*jm[6] + w4*jp[6] + w5*km[6] + w6*kp[6]
	o[7] = 0.0 + w0*c[7] + w1*c[6] + w2*r + w3*jm[7] + w4*jp[7] + w5*km[7] + w6*kp[7]
}

// tapTab is a point table flattened for one row stride and plane stride:
// each tap's element offset and coefficient, in table order, and the least
// and greatest offset, which bound what a row of taps reads.
type tapTab struct {
	offs   []int
	cs     []float64
	lo, hi int
}

// tapTable flattens pts for a dense array with row stride sj and plane
// stride sk, appending to offs and cs.
func tapTable(offs []int, cs []float64, pts []Point, sj, sk int) tapTab {
	t := tapTab{offs: offs, cs: cs}
	for p, pt := range pts {
		off := pt.DK*sk + pt.DJ*sj + pt.DI
		t.offs = append(t.offs, off)
		t.cs = append(t.cs, pt.C)
		if p == 0 || off < t.lo {
			t.lo = off
		}
		if p == 0 || off > t.hi {
			t.hi = off
		}
	}
	return t
}

// tapRow writes out[x] = Σ cs[p]·src[at+x+offs[p]], every element
// accumulated from 0.0 in table order. Eight neighboring elements advance
// together so their partial sums stay in registers across the whole table
// and each tap costs one bounds check per eight loads.
func tapRow(out, src []float64, at int, t *tapTab) {
	offs, cs := t.offs, t.cs[:len(t.offs)]
	x := 0
	for ; x+8 <= len(out); x += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for p, off := range offs {
			c := cs[p]
			s := (*[8]float64)(src[at+x+off:])
			a0 += c * s[0]
			a1 += c * s[1]
			a2 += c * s[2]
			a3 += c * s[3]
			a4 += c * s[4]
			a5 += c * s[5]
			a6 += c * s[6]
			a7 += c * s[7]
		}
		*(*[8]float64)(out[x:]) = [8]float64{a0, a1, a2, a3, a4, a5, a6, a7}
	}
	for ; x < len(out); x++ {
		acc := 0.0
		for p, off := range offs {
			acc += cs[p] * src[at+x+off]
		}
		out[x] = acc
	}
}

// tapRows writes rows q < rows, one to four of them, of eight elements
// each through the AVX2 body: lane x of row q, for x in [lo, hi), is
// out[q*ostride+x] = Σ cs[p]·src[at+q*sstride+x+offs[p]], accumulated as
// tapRow does. All eight lanes are computed; the others are not stored.
// It first slices out and src to exactly what those rows can touch under
// offsets in [t.lo, t.hi], so the assembly, which checks nothing, reads
// and writes only memory these slice expressions have bounds-checked.
func tapRows(out []float64, ostride int, src []float64, at, sstride, rows int, t *tapTab, lo, hi int) {
	if rows < 1 || rows > 4 || ostride < 0 || sstride < 0 {
		panic("stencil: tapRows takes one to four rows at non-negative strides")
	}
	out = out[:(rows-1)*ostride+8]
	src = src[at+t.lo : at+(rows-1)*sstride+t.hi+8]
	if useAVX512 {
		tapRows8Z(out, ostride, src, -t.lo, sstride, rows, t.offs, t.cs[:len(t.offs)], lo, hi)
		return
	}
	tapRows8(out, ostride, src, -t.lo, sstride, rows, t.offs, t.cs[:len(t.offs)], lo, hi)
}

// ApplyGridShellWorkers applies the stencil over the margin region minus
// the inner box [skipLo, skipHi) — the boundary completion pass of the
// overlapped implementations after communication finishes. Each of the six
// shell slabs is tiled across the pool in turn (workers <= 0 resolves to
// GOMAXPROCS).
func ApplyGridShellWorkers(dst, src *grid.Grid, st Stencil, margin int, skipLo, skipHi [3]int, workers int) {
	if margin+st.Radius > src.Ghost {
		panic("stencil: margin + radius exceeds ghost")
	}
	g := src.Ghost
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = g-margin, g+src.Dom[a]+margin
	}
	// Decompose region \ inner into six slabs.
	boxes := [][2][3]int{
		{{lo[0], lo[1], lo[2]}, {hi[0], hi[1], skipLo[2]}},                 // low k
		{{lo[0], lo[1], skipHi[2]}, {hi[0], hi[1], hi[2]}},                 // high k
		{{lo[0], lo[1], skipLo[2]}, {hi[0], skipLo[1], skipHi[2]}},         // low j
		{{lo[0], skipHi[1], skipLo[2]}, {hi[0], hi[1], skipHi[2]}},         // high j
		{{lo[0], skipLo[1], skipLo[2]}, {skipLo[0], skipHi[1], skipHi[2]}}, // low i
		{{skipHi[0], skipLo[1], skipLo[2]}, {hi[0], skipHi[1], skipHi[2]}}, // high i
	}
	for _, b := range boxes {
		blo, bhi := b[0], b[1]
		empty := false
		for a := 0; a < 3; a++ {
			if bhi[a] <= blo[a] {
				empty = true
			}
		}
		if !empty {
			applyGridBox(dst, src, st, blo, bhi, workers)
		}
	}
}

// ApplyBricks applies the stencil to brick storage: every element within
// margin of the domain is recomputed from src into dst. src and dst are
// brick accessors over the same decomposition (typically two fields of one
// interleaved storage, so the exchange carries both). margin+Radius must not
// exceed the ghost width, and Radius must not exceed the brick extents.
// Bricks are divided over the default worker pool.
func ApplyBricks(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int) {
	ApplyBricksParallel(dst, src, dec, st, margin, 0)
}

// ApplyBricksRange applies the stencil only to bricks with storage indices
// in [lo, hi). Because the decomposition stores the interior span and each
// surface region contiguously, this is the building block for overlapping
// communication with interior computation: compute Interior() while the
// exchange is in flight, then the surface spans after it completes.
// The range is divided over the default worker pool.
func ApplyBricksRange(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin, lo, hi int) {
	ApplyBricksRangeWorkers(dst, src, dec, st, margin, lo, hi, 0)
}

// checkBrickApply validates the shared preconditions of the brick kernels.
func checkBrickApply(dec *core.BrickDecomp, st Stencil, margin int) {
	if margin+st.Radius > dec.Ghost() {
		panic(fmt.Sprintf("stencil: margin %d + radius %d exceeds ghost %d", margin, st.Radius, dec.Ghost()))
	}
	sh := dec.Shape()
	for a := 0; a < 3; a++ {
		if st.Radius > sh[a] {
			panic("stencil: radius exceeds brick extent")
		}
	}
}

// depth1 returns how far an extended coordinate sits outside the domain
// range [g, g+dom) on one axis.
func depth1(e, g, dom int) int {
	switch {
	case e < g:
		return g - e
	case e >= g+dom:
		return e - (g + dom) + 1
	default:
		return 0
	}
}

// applyBricksReference is the straightforward accessor-based implementation
// (one Brick.At per tap). It is the correctness oracle for the table-driven
// kernel and the subject of an ablation benchmark.
func applyBricksReference(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int) {
	sh := dec.Shape()
	dom, g := dec.Dom(), dec.Ghost()
	for idx := 0; idx < dec.NumBricks(); idx++ {
		c := dec.BrickCoord(idx)
		if c[0] < 0 {
			continue
		}
		org := [3]int{c[0] * sh[0], c[1] * sh[1], c[2] * sh[2]}
		for k := 0; k < sh[2]; k++ {
			if depth1(org[2]+k, g, dom[2]) > margin {
				continue
			}
			for j := 0; j < sh[1]; j++ {
				if depth1(org[1]+j, g, dom[1]) > margin {
					continue
				}
				for i := 0; i < sh[0]; i++ {
					if depth1(org[0]+i, g, dom[0]) > margin {
						continue
					}
					acc := 0.0
					for _, pt := range st.Points {
						acc += pt.C * src.At(idx, i+pt.DI, j+pt.DJ, k+pt.DK)
					}
					dst.Set(idx, i, j, k, acc)
				}
			}
		}
	}
}
