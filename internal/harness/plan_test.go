package harness

import (
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// cpuImpls are the implementations that exchange real data over the
// in-process runtime (GPU strategies are modeled and compile no plans).
var cpuImpls = SoakImpls

// TestPlanSummaryShape checks the recorded plan of every CPU implementation
// — present, non-empty, and with a digest that is stable across two runs of
// the same configuration — and against the paper's message-count story for
// the implementations where the count is exact.
func TestPlanSummaryShape(t *testing.T) {
	want := map[Impl]int{
		Layout: 42, // optimized surface order, Eq. 1
		MemMap: 26, // one message per neighbor
		Shift:  6,  // two slabs per dimension
		YASK:   26, // pack/unpack, one message per neighbor
	}
	variant := map[Impl]string{
		Layout: "spans", MemMap: "memmap", Shift: "shift", YASK: "pack",
	}
	for _, im := range cpuImpls {
		res, err := Run(baseConfig(im))
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		again, err := Run(baseConfig(im))
		if err != nil {
			t.Fatalf("%v rerun: %v", im, err)
		}
		if res.Plan == nil || again.Plan == nil {
			t.Fatalf("%v: no plan", im)
		}
		if res.Plan.Sends == 0 || res.Plan.SendBytes == 0 {
			t.Errorf("%v: empty plan: %+v", im, *res.Plan)
		}
		if res.Plan.Digest != again.Plan.Digest {
			t.Errorf("%v: plan digest differs between identical runs: %s vs %s",
				im, res.Plan.Digest, again.Plan.Digest)
		}
		if res.Checksum != again.Checksum {
			t.Errorf("%v: checksum differs between identical runs: %v vs %v",
				im, res.Checksum, again.Checksum)
		}
		n, exact := want[im]
		if !exact {
			continue
		}
		if res.Plan.Sends != n || res.Plan.Recvs != n {
			t.Errorf("%v: plan has %d sends / %d recvs, want %d",
				im, res.Plan.Sends, res.Plan.Recvs, n)
		}
		if res.Plan.Variant != variant[im] {
			t.Errorf("%v: variant %q, want %q", im, res.Plan.Variant, variant[im])
		}
	}
}

// TestPlanGolden pins the compiled message plan of the reference
// configuration (16³ per rank on 2×2×2 ranks, 7-point, ghost 8, brick 8,
// ghost expansion on, 8 steps, one worker — the `cmd/weak` defaults):
// variant, send count, wire bytes per exchange, and the plan digest, which
// covers every peer, tag, and span, for all six CPU plans. All four are
// deterministic, so any change is a change of communication behaviour, not
// noise.
func TestPlanGolden(t *testing.T) {
	cases := []struct {
		impl    Impl
		variant string
		sends   int
		wire    int64
		digest  string
	}{
		{Layout, "spans", 35, 229376, "97b07b536cd3c9ed"},
		{MemMap, "memmap", 26, 229376, "a51420e631712c46"},
		{YASK, "pack", 26, 229376, "e0d6d23524ae6b72"},
		{MPITypes, "types", 26, 229376, "7c288a19b8f3d7cc"},
		{Basic, "spans", 56, 229376, "abf0424984629a08"},
		{Shift, "shift", 6, 229376, "89c1a4ef4c2f3663"},
	}
	for _, tc := range cases {
		res, err := Run(Config{
			Impl:        tc.impl,
			Procs:       [3]int{2, 2, 2},
			Dom:         [3]int{16, 16, 16},
			Ghost:       8,
			Shape:       core.Shape{8, 8, 8},
			Stencil:     stencil.Star7(),
			Steps:       8,
			Warmup:      2,
			Machine:     netmodel.ThetaKNL(),
			ExpandGhost: true,
			Workers:     1,
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.impl, err)
		}
		p := res.Plan
		if p == nil {
			t.Fatalf("%v: no plan", tc.impl)
		}
		if p.Variant != tc.variant || p.Sends != tc.sends || res.MsgsPerExchange != tc.sends ||
			res.WireBytes != tc.wire || p.Digest != tc.digest {
			t.Errorf("%v: plan %s, %d sends (%d msgs/exchange), %d wire bytes, digest %s; want %s, %d, %d, %s",
				tc.impl, p.Variant, p.Sends, res.MsgsPerExchange, res.WireBytes, p.Digest,
				tc.variant, tc.sends, tc.wire, tc.digest)
		}
	}
}

// TestPlanReuseMetrics checks the plan-reuse counter family: two plans per
// rank, one per time level (bricks and grids alike), started once per
// exchange between them.
func TestPlanReuseMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := baseConfig(Layout)
	cfg.Metrics = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var built, starts, bytes int64
	for _, c := range snap.Counters {
		switch c.Name {
		case metrics.PlansBuiltTotal:
			built += c.Value
		case metrics.PlanStartsTotal:
			starts += c.Value
		case metrics.PlanStartBytesTotal:
			bytes += c.Value
		}
	}
	ranks := int64(cfg.ranks())
	steps := int64(cfg.Steps + cfg.Warmup)
	if built != 2*ranks {
		t.Errorf("plans built = %d, want %d (two per rank)", built, 2*ranks)
	}
	if starts != ranks*steps {
		t.Errorf("plan starts = %d, want %d (one per rank per step)", starts, ranks*steps)
	}
	if bytes <= 0 {
		t.Errorf("plan start bytes = %d, want > 0", bytes)
	}
}
