package stencil

import (
	"slices"
	"sync"

	"github.com/bricklab/brick/internal/core"
)

// brickKernel is a stencil compiled for one brick shape: everything that
// depends only on (shape, point table) is built once by kernelFor and shared,
// read-only, by every Apply call, worker and rank. Per axis it tabulates, for
// every in-brick coordinate plus stencil offset, which neighbor step
// (-1/0/+1) the access takes and the local coordinate inside that brick —
// the indirection the paper's brick code generator resolves with vector
// align operations. Three bodies execute it:
//
//   - star7: the point table is exactly centre, -i, +i, -j, +j, -k, +k, so
//     each output row is one fused expression over five source rows (row7);
//     on 8³ bricks and an AVX2 host one brick7Box call computes the box;
//   - rows: any other table copies the brick plus its radius-wide halo into
//     a dense scratch block and runs the tap rows over it, as on an array:
//     on bricks eight wide, radius at most 4 and an AVX2 host blockRows8
//     fills a block of row stride 16 and rowsBlock runs four rows per
//     tapRows call; elsewhere gather fills a block of row stride ext[0] and
//     rows runs tapRow a row at a time;
//   - run: the per-element table walk, the fallback when the box can reach a
//     missing neighbor and the oracle the other two are tested against.
//
// All three accumulate every element as ((0 + c₀s₀) + c₁s₁) + … in
// point-table order, so they are Float64bits-identical.
type brickKernel struct {
	sh   core.Shape
	r    int
	pts  []Point    // private copy of the point table
	step [3][]int8  // coordinate+r -> neighbor step along the axis
	loc  [3][]int32 // coordinate+r -> local coordinate in target brick

	star7 bool       // row7 applies
	w7    [7]float64 // its coefficients, point-table order

	ext  [3]int // brick extents plus the halo: sh + 2r
	taps tapTab // the point table over the halo'd block

	// The block fill's tables, built when blockShape holds: per block row,
	// the sources blockRows8 copies, and the point table at row stride 16.
	rowTab    []rowEnt
	blockTaps tapTab
}

// rowEnt is one row of the 16-stride block: adj is the neighbor index
// (core.Adj order) of the row's -i brick, off the row's element offset
// within a brick. The row's own brick is adj+1 and its +i brick adj+2.
type rowEnt struct {
	adj, off int32
}

// blockStride is the row stride of the block blockRows8 fills: the -i
// brick's lanes 4–7, the brick's own eight, the +i brick's lanes 0–3. Brick
// element i sits at column blockCol+i.
const (
	blockStride = 16
	blockCol    = 4
)

// path names the body one brick visit took.
type path int

const (
	pathFused path = iota
	pathRows
	pathFallback
	pathVector // fused7 through the AVX2 brick7Box
	pathBlock  // blockRows8 and rowsBlock
)

func newBrickKernel(sh core.Shape, st Stencil) *brickKernel {
	r := st.Radius
	k := &brickKernel{sh: sh, r: r, pts: append([]Point(nil), st.Points...)}
	for a := 0; a < 3; a++ {
		n := sh[a] + 2*r
		k.ext[a] = n
		k.step[a] = make([]int8, n)
		k.loc[a] = make([]int32, n)
		for x := 0; x < n; x++ {
			c := x - r
			switch {
			case c < 0:
				k.step[a][x] = -1
				k.loc[a][x] = int32(c + sh[a])
			case c >= sh[a]:
				k.step[a][x] = 1
				k.loc[a][x] = int32(c - sh[a])
			default:
				k.step[a][x] = 0
				k.loc[a][x] = int32(c)
			}
		}
	}
	// row7 peels the first and last element of a row, so it needs two.
	if w, ok := star7Weights(st); ok && sh[0] >= 2 {
		k.star7, k.w7 = true, w
		return k
	}
	k.taps = tapTable(nil, nil, k.pts, k.ext[0], k.ext[0]*k.ext[1])
	if k.blockShape() {
		k.blockTaps = tapTable(nil, nil, k.pts, blockStride, blockStride*k.ext[1])
		k.rowTab = make([]rowEnt, 0, k.ext[1]*k.ext[2])
		for z := 0; z < k.ext[2]; z++ {
			for y := 0; y < k.ext[1]; y++ {
				k.rowTab = append(k.rowTab, rowEnt{
					adj: int32((int(k.step[2][z])+1)*9 + (int(k.step[1][y])+1)*3),
					off: (k.loc[2][z]*int32(sh[1]) + k.loc[1][y]) * int32(sh[0]),
				})
			}
		}
	}
	return k
}

// blockShape reports whether the block fill can serve this kernel: bricks
// eight wide, whose -i and +i halves of a block row are four lanes, so a
// radius of at most 4.
func (kr *brickKernel) blockShape() bool {
	return !kr.star7 && kr.sh[0] == 8 && kr.r <= blockCol
}

// haloLen is the scratch the rows body needs: the gathered block or, where
// blockShape holds, the 16-stride one, which is at least as large (ext[0]
// is 8+2r ≤ 16) and so serves either fill.
func (kr *brickKernel) haloLen() int {
	w := kr.ext[0]
	if kr.blockShape() {
		w = blockStride
	}
	return w * kr.ext[1] * kr.ext[2]
}

// kernels memoizes compiled kernels. A run uses one or two (shape, stencil)
// pairs, so a short list searched by value beats a map; the bound only keeps
// a process that sweeps many stencils from growing it without limit.
var kernels struct {
	sync.Mutex
	list []*brickKernel
}

const maxKernels = 16

// kernelFor returns the compiled kernel for (sh, st), building it on first
// use. The table is compared by value, so a caller that rebuilds or edits
// its Stencil never gets a stale kernel.
func kernelFor(sh core.Shape, st Stencil) *brickKernel {
	kernels.Lock()
	defer kernels.Unlock()
	for _, k := range kernels.list {
		if k.sh == sh && k.r == st.Radius && slices.Equal(k.pts, st.Points) {
			return k
		}
	}
	k := newBrickKernel(sh, st)
	if len(kernels.list) == maxKernels {
		kernels.list = append(kernels.list[:0], kernels.list[1:]...)
	}
	kernels.list = append(kernels.list, k)
	return k
}

// brickBox returns the part [lo, hi) of brick idx, in brick-local
// coordinates, that lies within margin of the domain; ok is false for
// padding slots and bricks wholly outside it.
func brickBox(dec *core.BrickDecomp, idx, margin int) (lo, hi [3]int, ok bool) {
	c := dec.BrickCoord(idx)
	if c[0] < 0 {
		return lo, hi, false
	}
	sh, dom, g := dec.Shape(), dec.Dom(), dec.Ghost()
	for a := 0; a < 3; a++ {
		org := c[a] * sh[a]
		lo[a] = max(0, g-margin-org)
		hi[a] = min(sh[a], g+dom[a]+margin-org)
		if lo[a] >= hi[a] {
			return lo, hi, false
		}
	}
	return lo, hi, true
}

// haloStack is the scratch the rows body keeps on the goroutine stack: the
// 16-stride block of an 8³ brick with a radius-2 halo. Larger blocks are
// allocated per applyRange call.
const haloStack = blockStride * 12 * 12

// applyRange applies the kernel to bricks with storage indices in
// [loIdx, hiIdx). It keeps no state between bricks or calls, so any number
// of workers and ranks may run it on one kernel at once.
func (kr *brickKernel) applyRange(dst, src core.Brick, dec *core.BrickDecomp, margin, loIdx, hiIdx int) {
	if kr.star7 {
		kr.applyBricks(dst, src, dec, margin, loIdx, hiIdx, nil)
		return
	}
	var stack [haloStack]float64
	halo := stack[:]
	if n := kr.haloLen(); n > len(halo) {
		halo = make([]float64, n)
	}
	kr.applyBricks(dst, src, dec, margin, loIdx, hiIdx, halo)
}

func (kr *brickKernel) applyBricks(dst, src core.Brick, dec *core.BrickDecomp, margin, loIdx, hiIdx int, halo []float64) {
	for idx := loIdx; idx < hiIdx; idx++ {
		if lo, hi, ok := brickBox(dec, idx, margin); ok {
			kr.apply(dst, src, idx, lo, hi, halo)
		}
	}
}

// apply computes the box [lo, hi) of brick b and reports the body that did.
func (kr *brickKernel) apply(dst, src core.Brick, b int, lo, hi [3]int, halo []float64) path {
	if kr.star7 && kr.fused7(dst, src, b, lo, hi) {
		if kr.vector() {
			return pathVector
		}
		return pathFused
	}
	bases, ok := kr.loadBases(src, b, lo, hi)
	if ok && !kr.star7 {
		if kr.blockVector() {
			kr.fillBlock(halo, src, bases, lo, hi)
			kr.rowsBlock(dst, b, halo, lo, hi)
			return pathBlock
		}
		kr.gather(halo, src, &bases, lo, hi)
		kr.rows(dst, b, halo, lo, hi)
		return pathRows
	}
	kr.run(dst, src, b, &bases, lo, hi)
	return pathFallback
}

// loadBases returns the 27 neighbor base offsets (element index of the
// field's first element in each adjacent brick) of brick b, and whether
// every neighbor the box [lo, hi) can reach under the stencil radius exists.
// Missing neighbors get a poisoned base that traps via slice bounds if ever
// read. Bricks at the edge of the allocated grid have missing outward
// neighbors, but a box deep enough inside never reaches them.
func (kr *brickKernel) loadBases(src core.Brick, b int, lo, hi [3]int) (bases [core.NumAdj]int64, ok bool) {
	chunk := int64(src.Storage.Chunk())
	fb := int64(src.FieldBase())
	var reach [3][3]bool // per axis: step -1 / 0 / +1 reachable
	for a := 0; a < 3; a++ {
		reach[a] = [3]bool{lo[a]-kr.r < 0, true, hi[a]-1+kr.r >= kr.sh[a]}
	}
	ok = true
	for a := 0; a < core.NumAdj; a++ {
		nb := int64(b)
		if a != core.AdjSelf {
			nb = int64(src.Info.Adjacent(b, a%3-1, (a/3)%3-1, a/9-1))
		}
		if nb < 0 {
			bases[a] = int64(len(src.Storage.Data)) // trap if dereferenced
			ok = ok && !(reach[0][a%3] && reach[1][(a/3)%3] && reach[2][a/9])
		} else {
			bases[a] = nb*chunk + fb
		}
	}
	return bases, ok
}

// vector reports whether fused7 runs the AVX2 body, brick7Box: it is
// written for 8³ bricks only.
func (kr *brickKernel) vector() bool {
	return useAVX2 && kr.sh == core.Shape{8, 8, 8}
}

// blockVector reports whether a visit takes the AVX2 block fill,
// blockRows8, and rowsBlock instead of gather and rows.
func (kr *brickKernel) blockVector() bool {
	return useAVX2 && kr.blockShape()
}

// fused7 is the 7-point body. Per (k, j) row it takes the centre, ±j and ±k
// rows as slices of this brick or of the one face neighbor the row falls in,
// and the ±i taps of the row's two end elements from the left/right
// neighbor. Only the face neighbors the box touches are looked up; it
// returns false, having written nothing, if one of those is missing.
func (kr *brickKernel) fused7(dst, src core.Brick, b int, lo, hi [3]int) bool {
	I, J, K := kr.sh[0], kr.sh[1], kr.sh[2]
	chunk, fb := src.Storage.Chunk(), src.FieldBase()
	self := b*chunk + fb
	nb := [6]int{self, self, self, self, self, self} // -i +i -j +j -k +k
	for f := range nb {
		a, dir := f/2, star7Taps[f+1]
		if (dir[a] < 0 && lo[a] > 0) || (dir[a] > 0 && hi[a] < kr.sh[a]) {
			continue // the box stays clear of this face
		}
		n := src.Info.Adjacent(b, dir[0], dir[1], dir[2])
		if n < 0 {
			return false
		}
		nb[f] = int(n)*chunk + fb
	}
	s, d := src.Storage.Data, dst.Storage.Data
	dself := b*dst.Storage.Chunk() + dst.FieldBase()
	if kr.vector() {
		// The conversions bounds-check every brick the assembly reads.
		var nbp [6]*[512]float64
		for f, o := range nb {
			nbp[f] = (*[512]float64)(s[o:])
		}
		// Direct calls: through a func value the arguments would escape.
		dp, cp := (*[512]float64)(d[dself:]), (*[512]float64)(s[self:])
		if useAVX512 {
			brick7BoxZ(dp, cp, &nbp, &kr.w7, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
		} else {
			brick7Box(dp, cp, &nbp, &kr.w7, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
		}
		return true
	}
	i0, n := lo[0], hi[0]-lo[0]
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			// at: the row's first computed element, as an offset within a
			// brick. A row one step over a face is the same offset in the
			// neighbor, wrapped to its far side.
			at := (k*J+j)*I + i0
			c := self + at
			left, right, jm, jp, km, kp := c-1, c+n, c-I, c+I, c-J*I, c+J*I
			if i0 == 0 {
				left = nb[0] + at + I - 1
			}
			if i0+n == I {
				right = nb[1] + at + n - I
			}
			if j == 0 {
				jm = nb[2] + at + (J-1)*I
			}
			if j == J-1 {
				jp = nb[3] + at - (J-1)*I
			}
			if k == 0 {
				km = nb[4] + at + (K-1)*J*I
			}
			if k == K-1 {
				kp = nb[5] + at - (K-1)*J*I
			}
			if n == 8 {
				row7x8((*[8]float64)(d[dself+at:]), (*[8]float64)(s[c:]), (*[8]float64)(s[jm:]), (*[8]float64)(s[jp:]),
					(*[8]float64)(s[km:]), (*[8]float64)(s[kp:]), s[left], s[right], &kr.w7)
			} else {
				row7(d[dself+at:][:n], s[c:], s[jm:], s[jp:], s[km:], s[kp:], s[left], s[right], &kr.w7)
			}
		}
	}
	return true
}

// gather is the pure-Go fill and the block fill's oracle. It copies the
// part of brick b's neighborhood the box [lo, hi) reads — [lo-r, hi+r) on
// every axis — into the dense halo'd block of row stride ext[0], resolving
// each (k, j) row's brick once and splitting it along i into at most three
// constant-base runs. The edge runs are r elements at most, so they are
// copied element by element, and the centre run of an 8-wide brick is one
// array copied through a local, which the compiler does inline: neither
// calls memmove.
func (kr *brickKernel) gather(halo []float64, src core.Brick, bases *[core.NumAdj]int64, lo, hi [3]int) {
	r, I, J := kr.r, kr.sh[0], kr.sh[1]
	s := src.Storage.Data
	// the run boundaries along i, as block coordinates: [x0,xa) left
	// neighbor, [xa,xb) this column of bricks, [xb,x1) right neighbor
	x0, x1 := lo[0], hi[0]+2*r
	xa, xb := max(x0, r), min(x1, r+I)
	for k := lo[2]; k < hi[2]+2*r; k++ {
		for j := lo[1]; j < hi[1]+2*r; j++ {
			adj := (int(kr.step[2][k])+1)*9 + (int(kr.step[1][j])+1)*3
			off := int64((int(kr.loc[2][k])*J + int(kr.loc[1][j])) * I)
			h := halo[(k*kr.ext[1]+j)*kr.ext[0]:][:kr.ext[0]]
			if x0 < xa {
				l := s[bases[adj]+off+int64(I+x0-r):]
				for x := range xa - x0 {
					h[x0+x] = l[x]
				}
			}
			if c := h[xa:xb]; len(c) == 8 {
				v := *(*[8]float64)(s[bases[adj+1]+off+int64(xa-r):])
				*(*[8]float64)(c) = v
			} else {
				copy(c, s[bases[adj+1]+off+int64(xa-r):])
			}
			if xb < x1 {
				rt := s[bases[adj+2]+off:]
				for x := range x1 - xb {
					h[xb+x] = rt[x]
				}
			}
		}
	}
}

// fillBlock fills the rows of the 16-stride block that the box [lo, hi)
// reads — block coordinates [lo, hi+2r) along j and k — with one
// blockRows8 call per k-plane, each given only that plane's rows of blk
// and rowTab.
// Every row is copied whole, all sixteen columns, whatever the box's i
// range: a column the box does not reach is read only by lanes rowsBlock
// does not store.
//
// blockRows8 checks no bounds, so every base it can use is checked here
// against a whole brick field. A missing neighbor's base — the poisoned one
// loadBases returns — becomes the brick's own. That is safe because
// loadBases returned ok: the box cannot reach that neighbor, so its rows
// lie outside the planes and rows copied here or, along i, in columns only
// discarded lanes read.
func (kr *brickKernel) fillBlock(blk []float64, src core.Brick, bases [core.NumAdj]int64, lo, hi [3]int) {
	s := src.Storage.Data
	missing, last := int64(len(s)), int64(len(s)-kr.sh[0]*kr.sh[1]*kr.sh[2])
	for a, o := range bases {
		switch {
		case o == missing:
			bases[a] = bases[core.AdjSelf]
		case o < 0 || o > last:
			panic("stencil: neighbor brick outside its storage")
		}
	}
	ey, y0, y1 := kr.ext[1], lo[1], hi[1]+2*kr.r
	blk = blk[:len(kr.rowTab)*blockStride]
	for z := lo[2]; z < hi[2]+2*kr.r; z++ {
		row := z*ey + y0
		blockRows8(blk[row*blockStride:(z*ey+y1)*blockStride], s, &bases, kr.rowTab[row:z*ey+y1])
	}
}

// rowsBlock runs the point table over the 16-stride block fillBlock
// filled for every row of the box, writing brick b of dst: up to four rows
// of a plane per tapRows call, each computed on all eight lanes and stored
// on the box's [lo0, hi0).
func (kr *brickKernel) rowsBlock(dst core.Brick, b int, blk []float64, lo, hi [3]int) {
	I, J, r := kr.sh[0], kr.sh[1], kr.r
	d := dst.Storage.Data
	dself := b*dst.Storage.Chunk() + dst.FieldBase()
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j += 4 {
			at := ((k+r)*kr.ext[1]+j+r)*blockStride + blockCol
			tapRows(d[dself+(k*J+j)*I:], I, blk, at, blockStride, min(4, hi[1]-j), &kr.blockTaps, lo[0], hi[0])
		}
	}
}

// rows runs the point table over the gathered block for every row of the
// box, writing brick b of dst, a row at a time through tapRow.
func (kr *brickKernel) rows(dst core.Brick, b int, halo []float64, lo, hi [3]int) {
	I, J := kr.sh[0], kr.sh[1]
	d := dst.Storage.Data
	dself := b*dst.Storage.Chunk() + dst.FieldBase()
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			out := d[dself+(k*J+j)*I:][lo[0]:hi[0]]
			at := ((k+kr.r)*kr.ext[1]+j+kr.r)*kr.ext[0] + lo[0] + kr.r
			tapRow(out, halo, at, &kr.taps)
		}
	}
}

// run applies the stencil to the box [lo, hi) of brick b one element at a
// time, resolving every tap through the step/loc tables.
func (kr *brickKernel) run(dst, src core.Brick, b int, bases *[core.NumAdj]int64, lo, hi [3]int) {
	r, I, J := kr.r, kr.sh[0], kr.sh[1]
	sdat := src.Storage.Data
	ddat := dst.Storage.Data
	dbase := b*dst.Storage.Chunk() + dst.FieldBase()
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			for i := lo[0]; i < hi[0]; i++ {
				acc := 0.0
				for p := range kr.pts {
					pt := &kr.pts[p]
					x, y, z := i+pt.DI+r, j+pt.DJ+r, k+pt.DK+r
					adj := (int(kr.step[2][z])+1)*9 + (int(kr.step[1][y])+1)*3 + int(kr.step[0][x]) + 1
					off := (int(kr.loc[2][z])*J+int(kr.loc[1][y]))*I + int(kr.loc[0][x])
					acc += pt.C * sdat[bases[adj]+int64(off)]
				}
				ddat[dbase+(k*J+j)*I+i] = acc
			}
		}
	}
}
