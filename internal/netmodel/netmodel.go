// Package netmodel charges deterministic LogGP-style costs to communication
// events so that experiments report a reproducible "network" time alongside
// measured wall time. The paper's evaluation ran on Cray Aries (Theta) and
// EDR InfiniBand (Summit); off-testbed we cannot reproduce absolute numbers,
// but an α+n/β model preserves the phenomena the paper studies: message-count
// effects dominate for small subdomains, bandwidth effects for large, and
// padding wastes a size-independent amount of bandwidth per message.
package netmodel

import (
	"fmt"
	"math"
	"time"
)

// LinkKind identifies which physical path a transfer uses.
type LinkKind int

const (
	// Network is rank-to-rank transfer over the interconnect.
	Network LinkKind = iota
	// HostDevice is CPU<->GPU staging over NVLink or PCIe.
	HostDevice
	// GPUDirect is NIC<->GPU RDMA, bypassing the host (CUDA-Aware MPI).
	GPUDirect
	// PageMigration is a unified-memory page-fault service.
	PageMigration
)

func (k LinkKind) String() string {
	switch k {
	case Network:
		return "network"
	case HostDevice:
		return "host-device"
	case GPUDirect:
		return "gpudirect"
	case PageMigration:
		return "page-migration"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// Link is one α–β cost channel: a transfer of n bytes costs
// Latency + n/Bandwidth.
type Link struct {
	Latency   time.Duration // per-message/per-operation startup cost α
	Bandwidth float64       // sustained bytes per second β
}

// Cost returns the modeled duration of moving n bytes across the link. A
// transfer longer than a time.Duration can hold — a bandwidth near zero —
// costs the largest one.
func (l Link) Cost(n int) time.Duration {
	if n < 0 {
		panic("netmodel: negative transfer size")
	}
	d := l.Latency
	if l.Bandwidth > 0 {
		t := float64(n) / l.Bandwidth * float64(time.Second)
		if t >= float64(math.MaxInt64) || time.Duration(t) > math.MaxInt64-max(d, 0) {
			return math.MaxInt64
		}
		d += time.Duration(t)
	}
	return d
}

// Machine is a set of link profiles plus the properties the experiments
// depend on (host page size, per-element datatype-engine cost).
type Machine struct {
	Name string
	// Net is the node-to-node interconnect.
	Net Link
	// Host is CPU<->GPU staging (NVLink on Summit).
	Host Link
	// Direct is GPUDirect RDMA (device memory straight to the NIC).
	Direct Link
	// Fault is the unified-memory page-fault service cost; bandwidth applies
	// to the page payload.
	Fault Link
	// PageSize is the host base page size in bytes (4 KiB on Theta x86/KNL,
	// 64 KiB on Summit Power9) — MemMap padding granularity.
	PageSize int
	// TypeElemCost is the modeled per-element overhead of the MPI derived-
	// datatype engine's interpretive pack loop, charged on top of the real
	// copy the engine performs. The paper measured MPI_Types up to 460×
	// slower than MemMap; interpretive per-element dispatch is the cause.
	TypeElemCost time.Duration
}

// ThetaKNL approximates a Theta node: Cray Aries (~1.3 µs latency, ~11 GB/s
// effective per-rank bandwidth), 4 KiB pages, no GPU.
func ThetaKNL() Machine {
	return Machine{
		Name:         "theta-knl",
		Net:          Link{Latency: 1300 * time.Nanosecond, Bandwidth: 11e9},
		PageSize:     4096,
		TypeElemCost: 6 * time.Nanosecond,
	}
}

// SummitV100 approximates a Summit node: EDR InfiniBand (~1.0 µs, ~12.5 GB/s
// per rank), NVLink host staging (~10 µs launch, 50 GB/s), GPUDirect RDMA,
// 64 KiB Power9 pages, and a batched page-fault service time of ~5 µs per
// contiguous run plus migration at NVLink bandwidth.
func SummitV100() Machine {
	return Machine{
		Name:         "summit-v100",
		Net:          Link{Latency: 1000 * time.Nanosecond, Bandwidth: 12.5e9},
		Host:         Link{Latency: 10 * time.Microsecond, Bandwidth: 50e9},
		Direct:       Link{Latency: 1700 * time.Nanosecond, Bandwidth: 16e9},
		Fault:        Link{Latency: 5 * time.Microsecond, Bandwidth: 40e9},
		PageSize:     65536,
		TypeElemCost: 25 * time.Nanosecond,
	}
}

// Local is a profile for functional runs where modeled time should be cheap
// and obviously synthetic: 1 µs latency, 10 GB/s, 4 KiB pages.
func Local() Machine {
	return Machine{
		Name:         "local",
		Net:          Link{Latency: time.Microsecond, Bandwidth: 10e9},
		Host:         Link{Latency: 5 * time.Microsecond, Bandwidth: 25e9},
		Direct:       Link{Latency: 2 * time.Microsecond, Bandwidth: 8e9},
		Fault:        Link{Latency: 5 * time.Microsecond, Bandwidth: 20e9},
		PageSize:     4096,
		TypeElemCost: 10 * time.Nanosecond,
	}
}

// ByName returns a machine profile by name ("theta-knl", "summit-v100",
// "local"), defaulting to Local for unknown names with ok=false.
func ByName(name string) (Machine, bool) {
	switch name {
	case "theta-knl", "theta", "knl":
		return ThetaKNL(), true
	case "summit-v100", "summit", "v100":
		return SummitV100(), true
	case "local", "":
		return Local(), true
	default:
		return Local(), false
	}
}

// Cost returns the modeled duration of moving n bytes over the given link
// kind of this machine.
func (m Machine) Cost(kind LinkKind, n int) time.Duration {
	switch kind {
	case Network:
		return m.Net.Cost(n)
	case HostDevice:
		return m.Host.Cost(n)
	case GPUDirect:
		return m.Direct.Cost(n)
	case PageMigration:
		return m.Fault.Cost(n)
	default:
		panic("netmodel: unknown link kind")
	}
}
