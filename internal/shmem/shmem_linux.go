//go:build linux

package shmem

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// NewArena allocates an arena of at least size bytes (rounded up to a page
// multiple). On Linux it is backed by an unlinked file in /dev/shm — the
// paper's shm_open — so that the same physical pages can be mapped at
// several virtual addresses. If shared-memory setup fails the arena falls
// back to the heap with copy-based views.
func NewArena(size int) (*Arena, error) {
	if size <= 0 {
		return nil, fmt.Errorf("shmem: arena size %d must be positive", size)
	}
	pagesize := os.Getpagesize()
	size = (size + pagesize - 1) / pagesize * pagesize

	f, err := shmFile()
	if err != nil {
		return newFallbackArena(size, pagesize), nil
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return newFallbackArena(size, pagesize), nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return newFallbackArena(size, pagesize), nil
	}
	return &Arena{data: data, pagesize: pagesize, file: f, mapped: true}, nil
}

// OpenArenaFile maps an existing shared-memory file — typically a segment
// created by another process and inherited through fork/exec — as an arena.
// Unlike NewArena there is no heap fallback: a worker that cannot map the
// supervisor's segment cannot share memory with it, so the error is real.
// The arena takes ownership of f (Close closes it); its size is the file's
// current size, which must be a page multiple.
func OpenArenaFile(f *os.File) (*Arena, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("shmem: stat segment: %w", err)
	}
	pagesize := os.Getpagesize()
	size := int(st.Size())
	if size <= 0 || size%pagesize != 0 {
		return nil, fmt.Errorf("shmem: segment size %d is not a positive page multiple", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shmem: mapping %d-byte segment: %w", size, err)
	}
	return &Arena{data: data, pagesize: pagesize, file: f, mapped: true}, nil
}

// shmFile creates an anonymous shared-memory file: first in /dev/shm, then
// in the default temp dir (still mappable, just possibly disk-backed).
func shmFile() (*os.File, error) {
	for _, dir := range []string{"/dev/shm", ""} {
		f, err := os.CreateTemp(dir, "brick-shmem-*")
		if err != nil {
			continue
		}
		// Unlink immediately; the fd keeps the memory alive.
		os.Remove(f.Name())
		return f, nil
	}
	return nil, fmt.Errorf("shmem: no shared-memory backing available")
}

// mapVector builds an aliasing view: reserve a contiguous address range,
// then MAP_FIXED each file segment into place (Figure 5 of the paper).
func (a *Arena) mapVector(segs []Segment, total int) (*View, error) {
	if !a.mapped {
		return a.fallbackView(segs, total), nil
	}
	// Reserve address space with an inaccessible anonymous mapping.
	reserve, err := syscall.Mmap(-1, 0, total,
		syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil, fmt.Errorf("shmem: reserving %d bytes: %w", total, err)
	}
	base := uintptr(unsafe.Pointer(&reserve[0]))
	off := uintptr(0)
	for _, s := range segs {
		addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP,
			base+off, uintptr(s.Len),
			uintptr(syscall.PROT_READ|syscall.PROT_WRITE),
			uintptr(syscall.MAP_SHARED|syscall.MAP_FIXED),
			a.file.Fd(), uintptr(s.Offset))
		if errno != 0 {
			syscall.Munmap(reserve)
			return nil, fmt.Errorf("shmem: MAP_FIXED segment {%d,%d}: %v", s.Offset, s.Len, errno)
		}
		if addr != base+off {
			syscall.Munmap(reserve)
			return nil, fmt.Errorf("shmem: kernel moved fixed mapping")
		}
		off += uintptr(s.Len)
	}
	return &View{
		arena:  a,
		segs:   append([]Segment(nil), segs...),
		data:   reserve, // now fully overlaid with shared file pages
		mapped: true,
	}, nil
}

// Close unmaps the view's address range.
func (v *View) Close() error {
	if v.closed {
		return nil
	}
	v.closed = true
	if v.mapped {
		data := v.data
		v.data = nil
		return syscall.Munmap(data)
	}
	v.data = nil
	return nil
}

// release unmaps the canonical mapping and closes the backing file.
func (a *Arena) release() error {
	if !a.mapped {
		a.data = nil
		return nil
	}
	err := syscall.Munmap(a.data)
	a.data = nil
	if cerr := a.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Yield gives the processor to another runnable process, if there is one.
func Yield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
