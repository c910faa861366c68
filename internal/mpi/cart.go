package mpi

import "fmt"

// Cart is a Cartesian process topology: ranks arranged in a D-dimensional
// grid, optionally periodic per axis, with row-major rank ordering (last
// axis fastest, matching MPI_Cart_create).
type Cart struct {
	comm    *Comm
	dims    []int
	periods []bool
	coords  []int
}

// NewCart builds a Cartesian view of the communicator. The product of dims
// must equal the world size.
func NewCart(c *Comm, dims []int, periods []bool) *Cart {
	if len(dims) != len(periods) {
		panic("mpi: dims and periods length mismatch")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic("mpi: cart dims must be positive")
		}
		n *= d
	}
	if n != c.Size() {
		panic(fmt.Sprintf("mpi: cart of %d ranks over world of %d", n, c.Size()))
	}
	ct := &Cart{
		comm:    c,
		dims:    append([]int(nil), dims...),
		periods: append([]bool(nil), periods...),
	}
	ct.coords = ct.Coords(c.Rank())
	return ct
}

// Comm returns the underlying communicator.
func (ct *Cart) Comm() *Comm { return ct.comm }

// MyCoords returns this rank's grid coordinates.
func (ct *Cart) MyCoords() []int { return append([]int(nil), ct.coords...) }

// Coords converts a rank to grid coordinates (row-major, last axis fastest).
func (ct *Cart) Coords(rank int) []int {
	if rank < 0 || rank >= ct.comm.Size() {
		panic(fmt.Sprintf("mpi: rank %d out of range", rank))
	}
	co := make([]int, len(ct.dims))
	for i := len(ct.dims) - 1; i >= 0; i-- {
		co[i] = rank % ct.dims[i]
		rank /= ct.dims[i]
	}
	return co
}

// Rank converts grid coordinates to a rank. Coordinates on periodic axes are
// wrapped; out-of-range coordinates on non-periodic axes return -1 (no
// neighbor, like MPI_PROC_NULL).
func (ct *Cart) Rank(coords []int) int {
	if len(coords) != len(ct.dims) {
		panic("mpi: wrong coordinate dimensionality")
	}
	rank := 0
	for i, c := range coords {
		d := ct.dims[i]
		if c < 0 || c >= d {
			if !ct.periods[i] {
				return -1
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank
}

// Neighbor returns the rank offset from this rank by the given per-axis
// displacement, or -1 if it falls outside a non-periodic boundary.
func (ct *Cart) Neighbor(offset []int) int {
	if len(offset) != len(ct.dims) {
		panic("mpi: wrong offset dimensionality")
	}
	co := make([]int, len(ct.coords))
	for i := range co {
		co[i] = ct.coords[i] + offset[i]
	}
	return ct.Rank(co)
}

// Shift returns the source and destination ranks for a displacement along
// one axis (like MPI_Cart_shift): src is the rank that would send to this
// rank, dst the rank this rank sends to. Either may be -1 at a non-periodic
// boundary.
func (ct *Cart) Shift(axis, disp int) (src, dst int) {
	if axis < 0 || axis >= len(ct.dims) {
		panic("mpi: shift axis out of range")
	}
	off := make([]int, len(ct.dims))
	off[axis] = disp
	dst = ct.Neighbor(off)
	off[axis] = -disp
	src = ct.Neighbor(off)
	return src, dst
}
