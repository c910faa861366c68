package mpi

import "fmt"

// Datatype describes a non-contiguous selection of float64 elements within a
// base buffer, in the spirit of MPI derived datatypes. Pack gathers the
// selection into a contiguous buffer; Unpack scatters a contiguous buffer
// back into the selection.
//
// The engine is an interpretive offset walker (an odometer over the index
// space), like the generic dataloop path of mainstream MPI implementations.
// That per-element interpretation is exactly the overhead the paper measures
// for MPI_Types: the paper found derived-datatype exchanges up to 460×
// slower than MemMap on small subdomains.
type Datatype interface {
	// Count returns the number of selected elements.
	Count() int
	// Pack gathers the selection from base into dst (len >= Count).
	Pack(base, dst []float64)
	// Unpack scatters src (len >= Count) into the selection within base.
	Unpack(src, base []float64)
}

// Contiguous selects N consecutive elements starting at Offset.
type Contiguous struct {
	Offset, N int
}

// Count returns the number of selected elements.
func (t Contiguous) Count() int { return t.N }

// Pack copies the selection into dst.
func (t Contiguous) Pack(base, dst []float64) {
	copy(dst[:t.N], base[t.Offset:t.Offset+t.N])
}

// Unpack copies src back into the selection.
func (t Contiguous) Unpack(src, base []float64) {
	copy(base[t.Offset:t.Offset+t.N], src[:t.N])
}

// Vector selects Blocks blocks of BlockLen consecutive elements, the start
// of each block Stride elements apart, beginning at Offset (MPI_Type_vector
// with an initial displacement).
type Vector struct {
	Offset, Blocks, BlockLen, Stride int
}

// Count returns the number of selected elements.
func (t Vector) Count() int { return t.Blocks * t.BlockLen }

// Pack gathers the strided blocks into dst.
func (t Vector) Pack(base, dst []float64) {
	d := 0
	for b := 0; b < t.Blocks; b++ {
		s := t.Offset + b*t.Stride
		for i := 0; i < t.BlockLen; i++ {
			dst[d] = base[s+i]
			d++
		}
	}
}

// Unpack scatters src back into the strided blocks.
func (t Vector) Unpack(src, base []float64) {
	d := 0
	for b := 0; b < t.Blocks; b++ {
		s := t.Offset + b*t.Stride
		for i := 0; i < t.BlockLen; i++ {
			base[s+i] = src[d]
			d++
		}
	}
}

// Subarray selects a rectangular subvolume of a row-major N-dimensional
// array (MPI_Type_create_subarray): the full array has extents Sizes, the
// selection extents Subsizes starting at Starts. Axis 0 is slowest-varying.
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

// SendTyped packs the selection from base into scratch and sends it. scratch
// must hold at least dt.Count() elements and must stay untouched until the
// request completes.
func (c *Comm) SendTyped(dst, tag int, base []float64, dt Datatype, scratch []float64) *Request {
	n := dt.Count()
	dt.Pack(base, scratch[:n])
	return c.Isend(dst, tag, scratch[:n])
}

// RecvTyped receives dt.Count() elements into scratch and scatters them into
// base. It blocks until the message arrives.
func (c *Comm) RecvTyped(src, tag int, base []float64, dt Datatype, scratch []float64) {
	n := dt.Count()
	got := c.Recv(src, tag, scratch[:n])
	if got != n {
		panic(fmt.Sprintf("mpi: typed receive got %d elements, want %d", got, n))
	}
	dt.Unpack(scratch[:n], base)
}
