package mpi

import "fmt"

// Subarray selects a rectangular subvolume of a row-major N-dimensional
// array (MPI_Type_create_subarray): the full array has extents Sizes, the
// selection extents Subsizes starting at Starts. Axis 0 is slowest-varying.
// Pack gathers the selection into a contiguous buffer; Unpack scatters a
// contiguous buffer back into the selection.
//
// The engine is an interpretive offset walker (an odometer over the index
// space), like the generic dataloop path of mainstream MPI implementations.
// That per-element interpretation is exactly the overhead the paper measures
// for MPI_Types: the paper found derived-datatype exchanges up to 460×
// slower than MemMap on small subdomains.
type Subarray struct {
	Sizes, Subsizes, Starts []int
}

// NewSubarray validates and builds a subarray type.
func NewSubarray(sizes, subsizes, starts []int) Subarray {
	if len(sizes) == 0 || len(sizes) != len(subsizes) || len(sizes) != len(starts) {
		panic("mpi: subarray dimension mismatch")
	}
	for i := range sizes {
		if sizes[i] <= 0 || subsizes[i] <= 0 || starts[i] < 0 || starts[i]+subsizes[i] > sizes[i] {
			panic(fmt.Sprintf("mpi: subarray axis %d out of bounds: size=%d sub=%d start=%d",
				i, sizes[i], subsizes[i], starts[i]))
		}
	}
	return Subarray{
		Sizes:    append([]int(nil), sizes...),
		Subsizes: append([]int(nil), subsizes...),
		Starts:   append([]int(nil), starts...),
	}
}

// Count returns the number of selected elements.
func (t Subarray) Count() int {
	n := 1
	for _, s := range t.Subsizes {
		n *= s
	}
	return n
}

// walk visits every selected element's linear offset in row-major order,
// advancing an odometer over the subsizes — the interpretive dataloop.
func (t Subarray) walk(visit func(off, seq int)) {
	nd := len(t.Sizes)
	// Up to 8 dimensions the odometer lives on the stack, so a persistent
	// exchange's per-step walk does not allocate.
	var strideBuf, idxBuf [8]int
	strides, idx := strideBuf[:], idxBuf[:]
	if nd > len(strideBuf) {
		strides, idx = make([]int, nd), make([]int, nd)
	}
	strides, idx = strides[:nd], idx[:nd]
	strides[nd-1] = 1
	for i := nd - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * t.Sizes[i+1]
	}
	off := 0
	for i := 0; i < nd; i++ {
		off += t.Starts[i] * strides[i]
	}
	seq := 0
	for {
		visit(off, seq)
		seq++
		// Odometer increment.
		axis := nd - 1
		for {
			idx[axis]++
			off += strides[axis]
			if idx[axis] < t.Subsizes[axis] {
				break
			}
			off -= t.Subsizes[axis] * strides[axis]
			idx[axis] = 0
			axis--
			if axis < 0 {
				return
			}
		}
	}
}

// Pack gathers the subvolume into dst element by element.
func (t Subarray) Pack(base, dst []float64) {
	t.walk(func(off, seq int) { dst[seq] = base[off] })
}

// Unpack scatters src back into the subvolume element by element.
func (t Subarray) Unpack(src, base []float64) {
	t.walk(func(off, seq int) { base[off] = src[seq] })
}
