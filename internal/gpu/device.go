// Package gpu simulates the data-movement behaviour of a GPU-accelerated
// rank for the paper's Summit (V1/V2) experiments. Go has no CUDA; the
// computation itself runs on the CPU (bit-identical to the CPU path, so
// correctness is real), while time is charged to a deterministic model:
//
//   - kernels follow a roofline (max of flop-limited and bandwidth-limited
//     time) plus a launch overhead;
//   - unified-memory accesses go through a page table at host page
//     granularity, and every residency miss pays a page-fault service cost
//     plus migration at link bandwidth — which is how the paper's LayoutUM
//     compute penalty (unaligned regions sharing pages with interior data)
//     and MemMapUM padding traffic (Table 2) arise naturally;
//   - CUDA-Aware sends bypass the host at GPUDirect cost.
//
// DESIGN.md and EXPERIMENTS.md flag every V1/V2 number as modeled.
package gpu

import (
	"time"

	"github.com/bricklab/brick/internal/netmodel"
)

// DeviceSpec is the compute roofline of the simulated accelerator.
type DeviceSpec struct {
	Name     string
	Flops    float64       // peak double-precision flop/s
	MemBW    float64       // device memory bytes/s
	Launch   time.Duration // kernel launch overhead
	PageSize int           // unified-memory page granularity (host page)
}

// V100 returns the paper's NVIDIA Volta V100 as configured on Summit:
// 7.8 TF/s double precision, 828.8 GB/s HBM2, 64 KiB Power9 host pages.
func V100() DeviceSpec {
	return DeviceSpec{
		Name:     "v100",
		Flops:    7.8e12,
		MemBW:    828.8e9,
		Launch:   6 * time.Microsecond,
		PageSize: 65536,
	}
}

// Device accumulates the simulated timeline and data-movement counters of
// one GPU.
type Device struct {
	Spec DeviceSpec
	Mach netmodel.Machine

	// KernelTime is total modeled kernel execution time.
	KernelTime time.Duration
	// FaultTime is total modeled page-fault service + migration time.
	FaultTime time.Duration
	// Faults counts page migrations in either direction.
	Faults int
	// MigratedBytes counts page-migration traffic.
	MigratedBytes int64
}

// NewDevice builds a device against a machine profile.
func NewDevice(spec DeviceSpec, mach netmodel.Machine) *Device {
	return &Device{Spec: spec, Mach: mach}
}

// Kernel charges one kernel execution over the given element count, flops
// per element, and bytes of memory traffic per element, returning its
// modeled duration.
func (d *Device) Kernel(elems, flopsPerElem, bytesPerElem int) time.Duration {
	if elems <= 0 {
		return 0
	}
	flopTime := float64(elems*flopsPerElem) / d.Spec.Flops
	memTime := float64(elems*bytesPerElem) / d.Spec.MemBW
	t := flopTime
	if memTime > t {
		t = memTime
	}
	dur := d.Spec.Launch + time.Duration(t*float64(time.Second))
	d.KernelTime += dur
	return dur
}

// faultRange charges the migration of a contiguous run of pages: one fault
// service latency for the run (ATS batches and prefetches neighbouring
// pages) plus migration of the payload at link bandwidth.
func (d *Device) faultRange(pages, pageBytes int) time.Duration {
	if pages <= 0 {
		return 0
	}
	bytes := pages * pageBytes
	dur := d.Mach.Cost(netmodel.PageMigration, bytes)
	d.FaultTime += dur
	d.Faults += pages
	d.MigratedBytes += int64(bytes)
	return dur
}

// Reset clears the counters, keeping the configuration.
func (d *Device) Reset() {
	d.KernelTime, d.FaultTime = 0, 0
	d.Faults, d.MigratedBytes = 0, 0
}

// Residency says where a unified-memory page currently lives.
type Residency uint8

// Residency states.
const (
	OnDevice Residency = iota
	OnHost
)

// PageTable tracks unified-memory residency for one allocation at page
// granularity. All pages start on the device (first touch by the GPU).
type PageTable struct {
	dev       *Device
	pageBytes int
	res       []Residency
}

// NewPageTable covers sizeBytes of unified memory.
func NewPageTable(dev *Device, sizeBytes int) *PageTable {
	pb := dev.Spec.PageSize
	if pb <= 0 {
		panic("gpu: page size must be positive")
	}
	n := (sizeBytes + pb - 1) / pb
	return &PageTable{dev: dev, pageBytes: pb, res: make([]Residency, n)}
}

// NumPages returns the number of pages covered.
func (pt *PageTable) NumPages() int { return len(pt.res) }

// access migrates the pages overlapping [off, off+n) bytes to the given
// residency, charging a fault per moved page, and returns the total cost.
func (pt *PageTable) access(off, n int, want Residency) time.Duration {
	if n <= 0 {
		return 0
	}
	first := off / pt.pageBytes
	last := (off + n - 1) / pt.pageBytes
	if first < 0 || last >= len(pt.res) {
		panic("gpu: access outside page table")
	}
	// Migrate per contiguous run of non-resident pages: each run pays one
	// fault latency plus bandwidth for its payload.
	var total time.Duration
	run := 0
	for p := first; p <= last; p++ {
		if pt.res[p] != want {
			pt.res[p] = want
			run++
			continue
		}
		total += pt.dev.faultRange(run, pt.pageBytes)
		run = 0
	}
	total += pt.dev.faultRange(run, pt.pageBytes)
	return total
}

// HostAccess models the host (MPI) touching [off, off+n) bytes of unified
// memory under ATS: page-aligned spans are accessed remotely with no
// residency change, but partial pages at unaligned boundaries — pages
// shared between communicated and computation data — migrate to the host.
// This is exactly the effect the paper reports in Figure 15: communicated
// regions that are not aligned to page boundaries degrade the subsequent
// GPU computation, while MemMap's aligned regions do not.
func (pt *PageTable) HostAccess(off, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	var total time.Duration
	if head := off % pt.pageBytes; head != 0 {
		// Partial first page.
		total += pt.access(off, min(n, pt.pageBytes-head), OnHost)
	}
	if tail := (off + n) % pt.pageBytes; tail != 0 && (off+n)/pt.pageBytes != off/pt.pageBytes {
		// Partial last page.
		total += pt.access(off+n-tail, tail, OnHost)
	}
	return total
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DeviceAccess makes [off, off+n) bytes device-resident (the GPU faulting
// back pages the host pulled away), charging migrations.
func (pt *PageTable) DeviceAccess(off, n int) time.Duration { return pt.access(off, n, OnDevice) }

// ResidentOnDevice counts device-resident pages (for tests/inspection).
func (pt *PageTable) ResidentOnDevice() int {
	n := 0
	for _, r := range pt.res {
		if r == OnDevice {
			n++
		}
	}
	return n
}
