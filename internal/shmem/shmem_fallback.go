//go:build !linux

package shmem

import (
	"fmt"
	"os"
)

// NewArena allocates a heap-backed arena. On non-Linux platforms views are
// copy-based: the API is preserved but MemMap's zero-copy property is not,
// and Mapped() reports false so callers can account for it.
func NewArena(size int) (*Arena, error) {
	if size <= 0 {
		return nil, fmt.Errorf("shmem: arena size %d must be positive", size)
	}
	pagesize := os.Getpagesize()
	size = (size + pagesize - 1) / pagesize * pagesize
	return newFallbackArena(size, pagesize), nil
}

// OpenArenaFile is unsupported without mmap: cross-process arenas require
// shared mappings, which only the Linux implementation provides.
func OpenArenaFile(f *os.File) (*Arena, error) {
	return nil, fmt.Errorf("shmem: cross-process arenas require linux")
}

func (a *Arena) mapVector(segs []Segment, total int) (*View, error) {
	return a.fallbackView(segs, total), nil
}

// Close releases the view.
func (v *View) Close() error {
	v.closed = true
	v.data = nil
	return nil
}

func (a *Arena) release() error {
	a.data = nil
	return nil
}

// Yield does nothing: without cross-process arenas every rank is a goroutine.
func Yield() {}
