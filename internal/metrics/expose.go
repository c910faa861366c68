package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// SnapshotSchema identifies the JSON snapshot format version.
const SnapshotSchema = "brick-metrics/v1"

// Snapshot is the point-in-time JSON export of a registry. It is the
// interchange format between the harness binaries (-metrics-out) and
// flightreport -metrics.
type Snapshot struct {
	Schema     string              `json:"schema"`
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// CounterSnapshot is one counter series.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// GaugeSnapshot is one gauge series.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Bucket is one non-cumulative histogram bucket; LE is the inclusive upper
// bound rendered as a decimal string ("+Inf" for the overflow bucket) so
// the JSON stays finite. Empty buckets are omitted from snapshots.
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is one histogram series with pre-computed quantiles.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []Bucket          `json:"buckets,omitempty"`
}

// Mean returns sum/count, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// formatLE renders a bucket bound the way Prometheus does.
func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty snapshot. Series are sorted by name then labels, so snapshots of
// the same run are deterministic.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Schema: SnapshotSchema}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		snap.Counters = append(snap.Counters, CounterSnapshot{
			Name: c.name, Labels: c.labels, Value: c.v.Load(),
		})
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{
			Name: g.name, Labels: g.labels, Value: g.Value(),
		})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		hs := HistogramSnapshot{
			Name: h.name, Labels: h.labels,
			Count: h.Count(), Sum: h.Sum(),
			Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
		}
		counts := h.buckets()
		for i, n := range counts {
			if n == 0 {
				continue
			}
			hs.Buckets = append(hs.Buckets, Bucket{LE: formatLE(bucketUpper(i)), Count: n})
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteJSONFile writes the registry snapshot to path.
func (r *Registry) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshot reads a snapshot previously written with WriteJSON.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("metrics: parse %s: %w", path, err)
	}
	if snap.Schema != SnapshotSchema {
		return nil, fmt.Errorf("metrics: %s: unexpected schema %q (want %q)", path, snap.Schema, SnapshotSchema)
	}
	return &snap, nil
}

// FindHistograms returns the snapshot's histogram series matching name and
// every given label (extra labels on the series are ignored).
func (s *Snapshot) FindHistograms(name string, labels map[string]string) []HistogramSnapshot {
	var out []HistogramSnapshot
	for _, h := range s.Histograms {
		if h.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if h.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, h)
		}
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters, gauges, then histograms with cumulative
// le buckets plus _sum and _count, sorted for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	families := map[string][]string{} // family -> rendered lines
	types := map[string]string{}
	var order []string
	add := func(name, typ, line string) {
		if _, ok := types[name]; !ok {
			types[name] = typ
			order = append(order, name)
		}
		families[name] = append(families[name], line)
	}

	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		add(c.name, "counter", fmt.Sprintf("%s%s %d", c.name, formatLabels(c.labels), c.v.Load()))
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		add(g.name, "gauge", fmt.Sprintf("%s%s %s", g.name, formatLabels(g.labels),
			strconv.FormatFloat(g.Value(), 'g', -1, 64)))
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		counts := h.buckets()
		var cum uint64
		for i, n := range counts {
			cum += n
			if n == 0 && i != histBuckets-1 {
				continue // keep the exposition compact: only non-empty + +Inf
			}
			lb := copyLabels(h.labels)
			if lb == nil {
				lb = Labels{}
			}
			lb["le"] = formatLE(bucketUpper(i))
			add(h.name, "histogram", fmt.Sprintf("%s_bucket%s %d", h.name, formatLabels(lb), cum))
		}
		add(h.name, "histogram", fmt.Sprintf("%s_sum%s %s", h.name, formatLabels(h.labels),
			strconv.FormatFloat(h.Sum(), 'g', -1, 64)))
		add(h.name, "histogram", fmt.Sprintf("%s_count%s %d", h.name, formatLabels(h.labels), h.Count()))
	}

	sort.Strings(order)
	for _, name := range order {
		if help := r.help[name]; help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, types[name]); err != nil {
			return err
		}
		for _, line := range families[name] {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
