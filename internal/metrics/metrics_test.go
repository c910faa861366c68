package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestNilRegistryNoOp pins the disabled path: a nil registry hands out nil
// instruments and every operation, including exposition, is a no-op.
func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c", Labels{"a": "b"})
	g := r.Gauge("g", nil)
	h := r.Histogram("h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.Add(2)
	h.Observe(3)
	r.Describe("c", "help")
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("nil histogram stats must read as zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil exposition: err=%v len=%d", err, buf.Len())
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil snapshot must be empty")
	}
}

// TestHistogramZeroObservations: an empty histogram reports zeros
// everywhere and an empty bucket list.
func TestHistogramZeroObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty_seconds", nil)
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram: count=%d sum=%v min=%v max=%v", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("Quantile(%v) = %v, want 0", q, got)
		}
	}
	hs := r.Snapshot().Histograms[0]
	if hs.Count != 0 || len(hs.Buckets) != 0 || hs.P50 != 0 || hs.P99 != 0 {
		t.Errorf("empty snapshot: %+v", hs)
	}
}

// TestHistogramSingleBucket: identical observations land in one bucket and
// every quantile is exactly that value (min/max clamping).
func TestHistogramSingleBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("single_seconds", nil)
	const v = 0.003
	for i := 0; i < 100; i++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-100*v) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, 100*v)
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got != v {
			t.Errorf("Quantile(%v) = %v, want exactly %v", q, got, v)
		}
	}
	if n := len(r.Snapshot().Histograms[0].Buckets); n != 1 {
		t.Errorf("want 1 occupied bucket, got %d", n)
	}
}

// TestHistogramQuantiles checks p50/p99 against a known two-mode
// distribution: 90 fast observations and 10 slow ones an order of magnitude
// apart. p50 must sit in the fast mode's bucket and p99 in the slow one's.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("modes_seconds", nil)
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.1)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	// Log2 buckets: 0.001 ∈ (2^-10, 2^-9], 0.1 ∈ (2^-4, 2^-3].
	if p50 < 1.0/2048 || p50 > 1.0/512 {
		t.Errorf("p50 = %v, want within the fast mode's bucket", p50)
	}
	if p99 < 1.0/32 || p99 > 0.1 {
		t.Errorf("p99 = %v, want within the slow mode's bucket", p99)
	}
	if h.Max() != 0.1 || h.Min() != 0.001 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

// TestHistogramExtremes: zero, negative, tiny, and huge observations must
// land in the underflow/overflow buckets without corrupting quantiles.
func TestHistogramExtremes(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("extremes", nil)
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1e-12)
	h.Observe(1e9)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != -5 || h.Max() != 1e9 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if q := h.Quantile(1); q != 1e9 {
		t.Errorf("p100 = %v, want max", q)
	}
	if q := h.Quantile(0); q != -5 {
		t.Errorf("p0 = %v, want min", q)
	}
}

// TestBucketIndexBoundaries: exact powers of two belong to the bucket they
// bound (buckets are (lo, hi]).
func TestBucketIndexBoundaries(t *testing.T) {
	for i := 1; i < histBuckets-1; i++ {
		hi := bucketUpper(i)
		if got := bucketIndex(hi); got != i {
			t.Errorf("bucketIndex(%g) = %d, want %d", hi, got, i)
		}
		if got := bucketIndex(hi * 1.0001); got != i+1 {
			t.Errorf("bucketIndex(just above %g) = %d, want %d", hi, got, i+1)
		}
	}
}

// TestHistogramConcurrentObserve hammers one histogram from 8 goroutines;
// run under -race this pins the lock-free Observe path, and the totals
// must balance exactly.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("concurrent_seconds", Labels{"phase": "calc"})
	const goroutines, perGo = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGo; i++ {
				h.Observe(float64(g+1) * 0.0001)
			}
		}(g)
	}
	wg.Wait()
	if got, want := h.Count(), uint64(goroutines*perGo); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	var wantSum float64
	for g := 0; g < goroutines; g++ {
		wantSum += float64(g+1) * 0.0001 * perGo
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
	if h.Min() != 0.0001 || h.Max() != 0.0008 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

// TestCounterGaugeConcurrent exercises counters and gauges from many
// goroutines under -race.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Instrument lookup itself must be concurrency-safe too.
			c := r.Counter("ops_total", Labels{"rank": "0"})
			ga := r.Gauge("depth", nil)
			for i := 0; i < 1000; i++ {
				c.Inc()
				ga.Add(1)
				ga.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total", Labels{"rank": "0"}).Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("depth", nil).Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
}

// TestSeriesIdentity: same name+labels yield the same instrument, different
// labels a different one; caller label-map mutation must not leak in.
func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	lb := Labels{"impl": "Layout"}
	c1 := r.Counter("msgs_total", lb)
	lb["impl"] = "MemMap"
	c2 := r.Counter("msgs_total", lb)
	if c1 == c2 {
		t.Fatal("distinct label values must give distinct series")
	}
	if c1 != r.Counter("msgs_total", Labels{"impl": "Layout"}) {
		t.Error("same labels must return the cached series")
	}
}

// TestSnapshotRoundTrip writes a snapshot to disk and loads it back.
func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs_total", Labels{"impl": "Layout", "rank": "0"}).Add(42)
	r.Gauge("queue_depth", nil).Set(3)
	h := r.Histogram("phase_seconds", Labels{"phase": "wait"})
	h.Observe(0.001)
	h.Observe(0.004)
	path := filepath.Join(t.TempDir(), "m.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SnapshotSchema {
		t.Errorf("schema = %q", snap.Schema)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 42 {
		t.Errorf("counters: %+v", snap.Counters)
	}
	hs := snap.FindHistograms("phase_seconds", map[string]string{"phase": "wait"})
	if len(hs) != 1 || hs[0].Count != 2 || hs[0].Max != 0.004 {
		t.Errorf("histograms: %+v", hs)
	}
	if hs[0].Mean() != 0.0025 {
		t.Errorf("mean = %v", hs[0].Mean())
	}
	// The snapshot must be plain JSON (no Inf/NaN smuggled through).
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("re-marshal: %v", err)
	}
}

// TestLoadSnapshotRejectsWrongSchema guards the critical-path report's input path.
func TestLoadSnapshotRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Error("want schema error")
	}
}

// TestHistogramMergeAndJSON: merging two histograms gives the histogram of
// all their observations — buckets, count, min, max and so every quantile
// exactly — and a histogram survives its JSON wire form, empty or not, so
// a decoded one merges like the original. Wire forms whose buckets are not
// the layout's, or do not add up to the count, are refused.
func TestHistogramMergeAndJSON(t *testing.T) {
	a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 500; i++ {
		v := 1e-6 * float64(1+i*i%997)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	b.Observe(0)
	all.Observe(0)
	same := func(how string, got, want *Histogram) {
		t.Helper()
		if got.buckets() != want.buckets() || got.Count() != want.Count() ||
			got.Min() != want.Min() || got.Max() != want.Max() ||
			math.Abs(got.Sum()-want.Sum()) > 1e-12*math.Abs(want.Sum()) {
			t.Fatalf("%s: count %d sum %v [%v, %v], want count %d sum %v [%v, %v]", how,
				got.Count(), got.Sum(), got.Min(), got.Max(), want.Count(), want.Sum(), want.Min(), want.Max())
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if g, w := got.Quantile(q), want.Quantile(q); math.Abs(g-w) > 1e-12*w {
				t.Fatalf("%s: p%v %v, want %v", how, 100*q, g, w)
			}
		}
	}
	var decoded []*Histogram
	for _, h := range []*Histogram{a, b, NewHistogram()} {
		js, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var d *Histogram
		if err := json.Unmarshal(js, &d); err != nil {
			t.Fatalf("decoding %s: %v", js, err)
		}
		same("round trip", d, h)
		decoded = append(decoded, d)
	}
	m := NewHistogram()
	for _, d := range decoded {
		m.Merge(d)
	}
	m.Merge(nil)
	same("merge", m, all)
	for _, bad := range []string{
		`{"count":1,"buckets":[{"le":"3e-6","count":1}]}`,
		`{"count":2,"buckets":[{"le":"+Inf","count":1}]}`,
		`{"count":1,"buckets":[{"le":"x","count":1}]}`,
	} {
		if err := json.Unmarshal([]byte(bad), NewHistogram()); err == nil {
			t.Errorf("decoded %s", bad)
		}
	}
}
