package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestMain hosts the rank workers and measurement children the tests spawn:
// they are this test binary re-entered.
func TestMain(m *testing.M) {
	hostRoles()
	os.Exit(m.Run())
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: got %d names %v, want %d names %v", what, len(got), got, len(want), want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: name %d is %q, want %q", what, i, got[i], want[i])
		}
	}
}

// TestBenchmarkJSON asserts BENCHMARK.json declares exactly the workloads and
// metrics the command measures, with the same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	wls := workloads()
	if len(doc.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(wls))
	}
	for i, w := range wls {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", what, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the command %+v", what, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics())
	check("per_layer", doc.PerLayer, perLayerMetrics())
}

// TestToyScale runs every workload end to end, its replica traced and
// untraced, and every probe at toy scale (4 steps, 16³). It asserts
// cross-impl and cross-transport checksum identity, replica ≡ harness, the
// exact counts, and that the measured names are the declared names.
func TestToyScale(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	layerNames := map[string]bool{}
	for _, wl := range workloads() {
		j := job{wl: wl, steps: 4, dom: 16}
		m, sm, tl := j.endToEnd(7, 0)
		for _, n := range tl.Notes {
			t.Errorf("%s end to end: %s", wl.Name, n)
		}
		if len(sm.SetupS) != setupSamples || len(sm.StepMs) == 0 {
			t.Errorf("%s: samples %+v", wl.Name, sm)
		}
		sameNames(t, wl.Name+" end-to-end metrics", keys(m), names(endToEndMetrics()))
		// Four steps take about as long as the set-up's run-to-run noise, so
		// the sign of step_ms means nothing at this scale.
		for _, k := range []string{"setup_s", "peak_rss_mb"} {
			if !(m[k] > 0) {
				t.Errorf("%s: %s = %v, want > 0", wl.Name, k, m[k])
			}
		}

		lm, tl := j.layers(dir)
		for _, n := range tl.Notes {
			t.Errorf("%s layers: %s", wl.Name, n)
		}
		for k := range lm {
			layerNames[k] = true
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+wl.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string
				Dur  float64
			}
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Errorf("%s: trace is not JSON: %v", wl.Name, err)
		}
		if len(tr.TraceEvents) < 2*4*4 {
			t.Errorf("%s: trace has %d events, want at least 4 per step per rank", wl.Name, len(tr.TraceEvents))
		}
	}

	pm, tl := runProbes(time.Millisecond, 16, dir)
	for _, n := range tl.Notes {
		t.Errorf("probes: %s", n)
	}
	for k := range pm {
		layerNames[k] = true
	}
	var got []string
	for k := range layerNames {
		got = append(got, k)
	}
	sort.Strings(got)
	sameNames(t, "per-layer metrics", got, names(perLayerMetrics()))
}

func TestSelfTimeAndQuartiles(t *testing.T) {
	tr := newRankTrace(4)
	step := tr.begin(spanStep)
	apply := tr.begin(spanApply)
	tr.end(apply)
	tr.end(step)
	tr.Spans[step].Start, tr.Spans[step].End = 0, 10e9
	tr.Spans[apply].Start, tr.Spans[apply].End = 2e9, 8e9
	if self := tr.selfSeconds(); self[spanStep] != 4 || self[spanApply] != 6 {
		t.Errorf("self times %v, want step 4 and apply 6", self)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles %v %v, want 1.5 12", q1, q3)
	}
}
