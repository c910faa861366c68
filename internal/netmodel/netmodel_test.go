package netmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestLinkCost(t *testing.T) {
	l := Link{Latency: time.Microsecond, Bandwidth: 1e9} // 1 GB/s
	if got := l.Cost(0); got != time.Microsecond {
		t.Errorf("zero-byte cost = %v, want latency only", got)
	}
	// 1000 bytes at 1 GB/s = 1 µs, plus 1 µs latency.
	if got := l.Cost(1000); got != 2*time.Microsecond {
		t.Errorf("1000B cost = %v, want 2µs", got)
	}
}

func TestLinkCostNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	Link{}.Cost(-1)
}

func TestLinkCostZeroBandwidth(t *testing.T) {
	l := Link{Latency: time.Millisecond}
	if got := l.Cost(1 << 20); got != time.Millisecond {
		t.Errorf("zero-bandwidth link charged %v for payload", got)
	}
}

// TestLinkCostSaturates: a transfer too long for a time.Duration — a
// bandwidth a profile may carry, or a Link built in code, near zero —
// costs the largest duration, never a wrapped negative one.
func TestLinkCostSaturates(t *testing.T) {
	m, err := parseProfile([]byte(`{"schema":"brick-netmodel/v1","name":"x","net":{"latency_ns":1000,"bandwidth_bps":1e-300}}`))
	if err != nil {
		t.Fatalf("profile rejected: %v", err)
	}
	if got := m.Cost(Network, 4096); got != math.MaxInt64 {
		t.Errorf("1e-300 B/s profile: 4096 B cost %v, want the largest duration", got)
	}
	for _, l := range []Link{
		{Latency: time.Microsecond, Bandwidth: 1e-300},
		{Latency: math.MaxInt64 - 10, Bandwidth: 1},
		{Latency: math.MaxInt64, Bandwidth: 1e9},
	} {
		if got := l.Cost(4096); got != math.MaxInt64 {
			t.Errorf("%+v: 4096 B cost %v, want the largest duration", l, got)
		}
	}
	if got := (Link{Latency: 5, Bandwidth: 1e-300}).Cost(0); got != 5 {
		t.Errorf("empty transfer at 1e-300 B/s cost %v, want the latency", got)
	}
}

func TestCostMonotonic(t *testing.T) {
	m := ThetaKNL()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.Cost(Network, x) <= m.Cost(Network, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfiles(t *testing.T) {
	theta := ThetaKNL()
	if theta.PageSize != 4096 {
		t.Errorf("Theta page size = %d, want 4096", theta.PageSize)
	}
	summit := SummitV100()
	if summit.PageSize != 65536 {
		t.Errorf("Summit page size = %d, want 65536", summit.PageSize)
	}
	// GPUDirect must beat staged host transfer plus a network message for
	// any message size (the CUDA-Aware advantage).
	for _, n := range []int{512, 4096, 1 << 20} {
		direct := summit.Cost(GPUDirect, n)
		staged := summit.Cost(HostDevice, n) + summit.Cost(Network, n)
		if direct >= staged {
			t.Errorf("n=%d: GPUDirect %v not cheaper than staged %v", n, direct, staged)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"theta-knl", "theta", "knl", "summit-v100", "summit", "v100", "local", ""} {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) not found", name)
		}
	}
	if _, ok := ByName("cray-ex"); ok {
		t.Error("unknown machine reported found")
	}
}

func TestLinkKindString(t *testing.T) {
	names := map[LinkKind]string{
		Network: "network", HostDevice: "host-device",
		GPUDirect: "gpudirect", PageMigration: "page-migration",
		LinkKind(99): "LinkKind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestMachineCostPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind did not panic")
		}
	}()
	Local().Cost(LinkKind(42), 10)
}
