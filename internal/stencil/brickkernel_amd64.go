package stencil

// useAVX2 selects the vector bodies: brick7Box for the 7-point star on 8³
// bricks, row7x4 for its array rows, tapRows8 for every other point table
// on bricks eight wide and on array rows, and blockRows8 to fill those
// bricks' halo blocks at radius ≤ 4. It is read on every visit, so tests
// can flip it to run the pure-Go bodies on the same host.
var useAVX2 = hasAVX2()

// useAVX512 selects, where useAVX2 has picked a vector body, its AVX-512
// twin: brick7BoxZ, row7x8Z or tapRows8Z. Bodies are chosen in that order —
// AVX-512, then AVX2, then pure Go — and tests flip it as they flip useAVX2.
var useAVX512 = useAVX2 && hasAVX512()

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool

// hasAVX512 reports whether the CPU has AVX-512F and the OS saves the
// opmask and ZMM registers across context switches.
func hasAVX512() bool

// brick7Box computes the box [lo0,hi0)×[lo1,hi1)×[lo2,hi2) of one 8³ brick
// of the 7-point star: d is the brick's destination field, c its source, nb
// the source fields of its -i, +i, -j, +j, -k, +k face neighbours (a face
// the box does not touch may point at c), w the point-table coefficients.
// It writes only d[(k*8+j)*8+i] for i, j, k inside the box.
//
//go:noescape
func brick7Box(d, c *[512]float64, nb *[6]*[512]float64, w *[7]float64, lo0, hi0, lo1, hi1, lo2, hi2 int)

// row7x4 writes out[x] for x < len(out), a multiple of four, of the 7-point
// star: c holds the centre row with one element either side (c[x+1] is the
// centre of out[x]), jm…kp the ±j and ±k rows, each at least len(out) long.
//
//go:noescape
func row7x4(out, c, jm, jp, km, kp []float64, w *[7]float64)

// tapRows8 writes rows q < rows, one to four of them, of eight lanes of a
// flattened point table: for lane x in [lo, hi),
//
//	out[q*ostride+x] = Σ cs[p]·src[base+q*sstride+x+offs[p]],
//
// summed from +0.0 in table order with separate multiplies and adds. It
// computes all eight lanes of every row and stores only those in [lo, hi).
// It checks no bounds: the caller, tapRows, slices out and src to what the
// rows reach.
//
//go:noescape
func tapRows8(out []float64, ostride int, src []float64, base, sstride, rows int, offs []int, cs []float64, lo, hi int)

// blockRows8 fills blk, row q at blk[16q:16q+16] for q < len(tab), from
// src: with b = bases[tab[q].adj] and o = tab[q].off, columns 0–3 are
// src[b+o+4 : b+o+8] (lanes 4–7 of the -i brick's row), columns 4–11 the
// row of bases[adj+1], columns 12–15 lanes 0–3 of the row of bases[adj+2].
// It checks no bounds: the caller, fillBlock, slices blk and tab to the
// rows it fills and checks every base against a whole brick of src.
//
//go:noescape
func blockRows8(blk, src []float64, bases *[27]int64, tab []rowEnt)

// brick7BoxZ is brick7Box on AVX-512, one ZMM register per row.
//
//go:noescape
func brick7BoxZ(d, c *[512]float64, nb *[6]*[512]float64, w *[7]float64, lo0, hi0, lo1, hi1, lo2, hi2 int)

// row7x8Z is row7x4 on AVX-512 for any len(out): eight elements at a time,
// the last len(out)%8 under a mask. c must hold len(out)+2 elements.
//
//go:noescape
func row7x8Z(out, c, jm, jp, km, kp []float64, w *[7]float64)

// tapRows8Z is tapRows8 on AVX-512, one ZMM register per row.
//
//go:noescape
func tapRows8Z(out []float64, ostride int, src []float64, base, sstride, rows int, offs []int, cs []float64, lo, hi int)
