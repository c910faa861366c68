// Package shmem implements the paper's MemMap substrate: a shared-memory
// arena whose pages can be mapped multiple times at different virtual
// addresses, so that scattered storage regions appear contiguous to readers
// such as a communication library. On Linux the arena is a /dev/shm file
// (the paper's shm_open/memfd_create) and views are built with
// mmap(MAP_SHARED|MAP_FIXED) over a reserved address range — the exact
// mechanism of Section 4. Where mapping is unavailable the package degrades
// to copy-based views that preserve the API (Gather/Scatter become real
// copies) and report Mapped() == false.
package shmem

import (
	"errors"
	"fmt"
	"os"
)

// ErrClosed is returned by operations on a closed arena.
var ErrClosed = errors.New("shmem: arena closed")

// Segment designates a piece of the arena by byte offset and length. For
// mapped views both must be multiples of the page size (mmap granularity);
// this is the paper's page-alignment constraint on MemMap regions.
type Segment struct {
	Offset, Len int
}

// Arena is a chunk of memory that supports aliasing views.
type Arena struct {
	data     []byte
	pagesize int
	closed   bool
	views    []*View

	// backing for the mapped implementation
	file   *os.File
	mapped bool
}

// PageSize returns the host page granularity for view segments.
func (a *Arena) PageSize() int { return a.pagesize }

// Size returns the arena's usable size in bytes (page-rounded).
func (a *Arena) Size() int { return len(a.data) }

// Bytes returns the canonical view of the whole arena.
func (a *Arena) Bytes() []byte { return a.data }

// Float64s returns the canonical view as float64 elements.
func (a *Arena) Float64s() []float64 { return bytesToFloat64(a.data) }

// Mapped reports whether views alias the arena through virtual memory
// (true) or are copy-based fallbacks (false).
func (a *Arena) Mapped() bool { return a.mapped }

// File returns the arena's backing file, or nil for heap-backed arenas.
// The fd can be inherited by a child process (os/exec ExtraFiles) and
// reattached there with OpenArenaFile, giving both processes views onto
// the same physical pages.
func (a *Arena) File() *os.File { return a.file }

// View is a (possibly aliasing) contiguous window over a sequence of arena
// segments.
type View struct {
	arena  *Arena
	segs   []Segment
	data   []byte
	mapped bool
	closed bool
}

// Bytes returns the view's contiguous window. In mapped mode writes through
// the window are immediately visible in the arena and vice versa.
func (v *View) Bytes() []byte { return v.data }

// Float64s returns the window as float64 elements.
func (v *View) Float64s() []float64 { return bytesToFloat64(v.data) }

// Len returns the window length in bytes.
func (v *View) Len() int { return len(v.data) }

// Mapped reports whether this view aliases the arena.
func (v *View) Mapped() bool { return v.mapped }

// Gather refreshes the window from the arena. It is a no-op for mapped
// views; for fallback views it copies segment contents into the window
// (equivalent to packing — the data movement MemMap exists to avoid).
func (v *View) Gather() {
	if v.mapped || v.closed {
		return
	}
	off := 0
	for _, s := range v.segs {
		copy(v.data[off:off+s.Len], v.arena.data[s.Offset:s.Offset+s.Len])
		off += s.Len
	}
}

// validateSegments checks bounds and, for mapped arenas, page alignment.
func (a *Arena) validateSegments(segs []Segment) (total int, err error) {
	if len(segs) == 0 {
		return 0, errors.New("shmem: view needs at least one segment")
	}
	for _, s := range segs {
		if s.Offset < 0 || s.Len <= 0 || s.Offset+s.Len > len(a.data) {
			return 0, fmt.Errorf("shmem: segment {%d,%d} outside arena of %d bytes", s.Offset, s.Len, len(a.data))
		}
		if a.mapped && (s.Offset%a.pagesize != 0 || s.Len%a.pagesize != 0) {
			return 0, fmt.Errorf("shmem: segment {%d,%d} not page-aligned (page %d)", s.Offset, s.Len, a.pagesize)
		}
		total += s.Len
	}
	return total, nil
}

// MapVector creates a view in which the given segments appear consecutively.
// In mapped mode the view aliases the arena with zero copies; otherwise it
// is a buffer refreshed by Gather.
func (a *Arena) MapVector(segs []Segment) (*View, error) {
	if a.closed {
		return nil, ErrClosed
	}
	total, err := a.validateSegments(segs)
	if err != nil {
		return nil, err
	}
	v, err := a.mapVector(segs, total)
	if err != nil {
		return nil, err
	}
	a.views = append(a.views, v)
	return v, nil
}

// Close releases all views and the arena's backing storage.
func (a *Arena) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	var first error
	for _, v := range a.views {
		if err := v.Close(); err != nil && first == nil {
			first = err
		}
	}
	a.views = nil
	if err := a.release(); err != nil && first == nil {
		first = err
	}
	return first
}

// newFallbackArena builds a heap-backed arena (no aliasing views).
func newFallbackArena(size, pagesize int) *Arena {
	return &Arena{data: make([]byte, size), pagesize: pagesize}
}

// NewUnmappedArena allocates a heap-backed arena whose views are always
// copy-based (Mapped() == false), on every platform. It is exactly the
// degraded form NewArena falls back to when shared-memory setup fails at
// runtime — exposed so fault injection and degradation tests can force
// that path deterministically, including on Linux where real mapping would
// normally succeed.
func NewUnmappedArena(size int) (*Arena, error) {
	if size <= 0 {
		return nil, fmt.Errorf("shmem: arena size %d must be positive", size)
	}
	pagesize := os.Getpagesize()
	size = (size + pagesize - 1) / pagesize * pagesize
	return newFallbackArena(size, pagesize), nil
}

// fallbackView builds a copy-based view.
func (a *Arena) fallbackView(segs []Segment, total int) *View {
	v := &View{
		arena:  a,
		segs:   append([]Segment(nil), segs...),
		data:   make([]byte, total),
		mapped: false,
	}
	v.Gather()
	return v
}
