package harness

import (
	"testing"

	"github.com/bricklab/brick/internal/metrics"
)

// cpuImpls are the implementations that exchange real data over the
// in-process runtime (GPU strategies are modeled and compile no plans).
var cpuImpls = []Impl{YASK, YASKOL, MPITypes, Basic, Layout, MemMap, Shift, LayoutOL}

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

// TestPlanReuseMetrics checks the plan-reuse counter family: one plan per
// rank (two for the double-buffered grid impls), started once per exchange.
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
	if built != ranks {
		t.Errorf("plans built = %d, want %d (one per rank)", built, ranks)
	}
	if starts != ranks*steps {
		t.Errorf("plan starts = %d, want %d (one per rank per step)", starts, ranks*steps)
	}
	if bytes <= 0 {
		t.Errorf("plan start bytes = %d, want > 0", bytes)
	}
}
