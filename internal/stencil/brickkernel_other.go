//go:build !amd64

package stencil

// useAVX2 and useAVX512 are false off amd64: only the pure-Go bodies
// exist.
var useAVX2, useAVX512 = false, false

func brick7Box(d, c *[512]float64, nb *[6]*[512]float64, w *[7]float64, lo0, hi0, lo1, hi1, lo2, hi2 int) {
	panic("stencil: no vector body on this architecture")
}

func row7x4(out, c, jm, jp, km, kp []float64, w *[7]float64) {
	panic("stencil: no vector body on this architecture")
}

func tapRows8(out []float64, ostride int, src []float64, base, sstride, rows int, offs []int, cs []float64, lo, hi int) {
	panic("stencil: no vector body on this architecture")
}

func blockRows8(blk, src []float64, bases *[27]int64, tab []rowEnt) {
	panic("stencil: no vector body on this architecture")
}

func brick7BoxZ(d, c *[512]float64, nb *[6]*[512]float64, w *[7]float64, lo0, hi0, lo1, hi1, lo2, hi2 int) {
	panic("stencil: no vector body on this architecture")
}

func row7x8Z(out, c, jm, jp, km, kp []float64, w *[7]float64) {
	panic("stencil: no vector body on this architecture")
}

func tapRows8Z(out []float64, ostride int, src []float64, base, sstride, rows int, offs []int, cs []float64, lo, hi int) {
	panic("stencil: no vector body on this architecture")
}
