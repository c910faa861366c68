package bench

import (
	"os"
	"strings"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// runLayout runs a tiny instrumented Layout configuration and returns its
// baseline.
func runLayout(t *testing.T) Baseline {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg := harness.Config{
		Impl:    harness.Layout,
		Procs:   [3]int{2, 1, 1},
		Dom:     [3]int{16, 16, 16},
		Ghost:   8,
		Shape:   core.Shape{8, 8, 8},
		Stencil: stencil.Star7(),
		Steps:   4,
		Warmup:  1,
		Machine: netmodel.ThetaKNL(),
		Workers: 1,
		Metrics: reg,
	}
	res, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return FromResult(res, reg.Snapshot())
}

func TestFromResult(t *testing.T) {
	b := runLayout(t)
	if b.Schema != Schema {
		t.Errorf("schema = %q", b.Schema)
	}
	if b.Impl != "Layout" || b.Dim != 16 || b.Ranks != [3]int{2, 1, 1} {
		t.Errorf("config fields wrong: %+v", b)
	}
	if b.GStencils <= 0 {
		t.Errorf("GStencils = %v", b.GStencils)
	}
	if b.MsgsPerExchange <= 0 || b.WireBytes <= 0 {
		t.Errorf("message plan missing: %+v", b)
	}
	for _, phase := range []string{"calc", "pack", "call", "wait"} {
		p, ok := b.Phases[phase]
		if !ok {
			t.Fatalf("phase %s missing from baseline", phase)
		}
		if p.P50Sec > p.P90Sec || p.P90Sec > p.P99Sec || p.P99Sec > p.MaxSec {
			t.Errorf("phase %s: unordered percentiles %+v", phase, p)
		}
	}
	if b.Phases["calc"].MeanSec <= 0 {
		t.Error("calc mean is zero")
	}
	if b.Plan == nil {
		t.Fatal("compiled plan missing from baseline")
	}
	if b.Plan.Variant != "spans" || b.Plan.Digest == "" {
		t.Errorf("plan section wrong: %+v", *b.Plan)
	}
	if b.Plan.Sends == 0 || b.Plan.SendBytes == 0 {
		t.Errorf("plan empty: %+v", *b.Plan)
	}
}

func TestFilename(t *testing.T) {
	for impl, want := range map[string]string{
		"Layout":    "BENCH_Layout_16.json",
		"Layout-OL": "BENCH_LayoutOL_16.json",
		"MPI_Types": "BENCH_MPITypes_16.json",
	} {
		b := Baseline{Impl: impl, Dim: 16}
		if got := b.Filename(); got != want {
			t.Errorf("Filename(%s) = %s, want %s", impl, got, want)
		}
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	b := runLayout(t)
	dir := t.TempDir()
	path, err := b.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Impl != b.Impl || got.GStencils != b.GStencils || len(got.Phases) != len(b.Phases) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, b)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.json"
	if err := writeFile(path, `{"schema":"other/v9"}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("Load = %v, want schema error", err)
	}
}

func TestCompare(t *testing.T) {
	base := Baseline{
		Schema: Schema, Impl: "Layout", Dim: 16, Ranks: [3]int{2, 1, 1},
		Stencil: "star7", GStencils: 1.0, MsgsPerExchange: 42, WireBytes: 1 << 20,
	}
	ok := base
	ok.GStencils = 0.95
	if err := Compare(base, ok, 0.10); err != nil {
		t.Errorf("5%% drop within 10%% gate failed: %v", err)
	}
	slow := base
	slow.GStencils = 0.85
	if err := Compare(base, slow, 0.10); err == nil {
		t.Error("15% drop passed a 10% gate")
	}
	faster := base
	faster.GStencils = 2.0
	if err := Compare(base, faster, 0.10); err != nil {
		t.Errorf("improvement failed the gate: %v", err)
	}
	otherImpl := base
	otherImpl.Impl = "MemMap"
	if err := Compare(base, otherImpl, 0.10); err == nil {
		t.Error("mismatched impls compared")
	}
	plan := base
	plan.MsgsPerExchange = 26
	if err := Compare(base, plan, 0.10); err == nil {
		t.Error("message-plan change passed the gate")
	}
	wire := base
	wire.WireBytes = 2 << 20
	if err := Compare(base, wire, 0.10); err == nil {
		t.Error("wire-bytes change passed the gate")
	}
	withPlan := base
	withPlan.Plan = &core.PlanSummary{Variant: "spans", Digest: "aaaa"}
	samePlan := base
	samePlan.Plan = &core.PlanSummary{Variant: "spans", Digest: "aaaa"}
	if err := Compare(withPlan, samePlan, 0.10); err != nil {
		t.Errorf("identical plan digests failed the gate: %v", err)
	}
	changed := base
	changed.Plan = &core.PlanSummary{Variant: "spans", Digest: "bbbb"}
	if err := Compare(withPlan, changed, 0.10); err == nil {
		t.Error("plan digest change passed the gate")
	}
	if err := Compare(base, changed, 0.10); err != nil {
		t.Errorf("pre-plan baseline gated on digest: %v", err)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
