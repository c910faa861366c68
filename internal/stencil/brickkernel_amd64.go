package stencil

// useAVX2 selects the vector bodies: brick7Box for the 7-point star on 8³
// bricks and row7x4 for array rows. It is read on every visit, so tests can
// flip it to run the pure-Go bodies on the same host.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool

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
