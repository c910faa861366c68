package flight

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/metrics"
)

// snapFor builds a metrics snapshot with a known phase breakdown: rank 0 is
// calc-bound, rank 1 is wait-bound.
func snapFor(t *testing.T) *metrics.Snapshot {
	t.Helper()
	reg := metrics.NewRegistry()
	obs := func(rank, phase string, v float64, n int) {
		h := reg.Histogram(metrics.PhaseSeconds,
			metrics.Labels{"impl": "Layout", "rank": rank, "phase": phase})
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	obs("0", "calc", 0.010, 8) // 80ms
	obs("0", "wait", 0.002, 8) // 16ms
	obs("0", "call", 0.0005, 8)
	obs("0", "pack", 0, 8)
	obs("1", "calc", 0.003, 8)
	obs("1", "wait", 0.009, 8) // wait-bound
	obs("1", "call", 0.0005, 8)
	obs("1", "pack", 0, 8)
	return reg.Snapshot()
}

func find(t *testing.T, reports []RankReport, rank string) RankReport {
	t.Helper()
	for _, r := range reports {
		if r.Rank == rank && r.Impl == "Layout" {
			return r
		}
	}
	t.Fatalf("rank %s not in reports: %+v", rank, reports)
	return RankReport{}
}

// TestAnalyzeShares checks totals, shares, and dominant-phase detection.
func TestAnalyzeShares(t *testing.T) {
	reports := Analyze(snapFor(t), nil)
	r0 := find(t, reports, "0")
	if d := r0.Dominant(); d.Phase != "calc" {
		t.Errorf("rank 0 dominant = %s, want calc", d.Phase)
	}
	wantTotal := 8 * (0.010 + 0.002 + 0.0005)
	if diff := r0.Total - wantTotal; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rank 0 total = %v, want %v", r0.Total, wantTotal)
	}
	if d := r0.Dominant(); d.Share < 0.79 || d.Share > 0.81 {
		t.Errorf("rank 0 calc share = %v, want ≈0.80", d.Share)
	}
	r1 := find(t, reports, "1")
	if d := r1.Dominant(); d.Phase != "wait" {
		t.Errorf("rank 1 dominant = %s, want wait", d.Phase)
	}
	// Without a trace the chain falls back to canonical step order over
	// non-negligible phases.
	if got := strings.Join(r1.Chain, "→"); got != "call→wait→calc" {
		t.Errorf("rank 1 fallback chain = %s", got)
	}
}

// TestAnalyzeChainFromTrace: with a flight artifact, the longest
// back-to-back event chain wins over the fallback. Rank 0's ring holds an
// isolated early receive post, then the real chain: a send post, a wait
// overlapping the flight, the surface phase mark, a wait, the next step's
// mark and a last wait.
func TestAnalyzeChainFromTrace(t *testing.T) {
	ms := int64(time.Millisecond)
	ev := func(at int64, kind Kind, peer, tag, part int32) Event {
		return Event{Nanos: at, Kind: kind, Peer: peer, Tag: tag, Part: part}
	}
	fs := &Snapshot{Ranks: []RankLog{{Rank: 0, Events: []Event{
		ev(0, KindRecvPost, 1, 7, -1),
		ev(10*ms, KindSendPost, 1, 7, -1),
		ev(10*ms+50_000, KindWaitStart, 2, 8, -1),
		ev(20*ms, KindWaitDone, 2, 8, -1),
		ev(20*ms, KindPhase, -1, -1, PhaseSurface),
		ev(20*ms, KindWaitStart, 1, 7, -1),
		ev(25*ms, KindWaitDone, 1, 7, -1),
		ev(25*ms, KindStep, -1, -1, -1),
		ev(25*ms, KindWaitStart, 2, 9, -1),
		ev(29*ms, KindWaitDone, 2, 9, -1),
	}}}}
	reports := Analyze(snapFor(t), fs)
	r0 := find(t, reports, "0")
	if got := strings.Join(r0.Chain, "→"); got != "send→wait→phase→wait→step→wait" {
		t.Errorf("chain = %s", got)
	}
	if r0.ChainDur < 0.018 || r0.ChainDur > 0.020 {
		t.Errorf("chain duration = %v, want 18.95ms", r0.ChainDur)
	}
	// Rank 1 has no recorded timeline: it keeps the phase-share fallback.
	if got := strings.Join(find(t, reports, "1").Chain, "→"); got != "call→wait→calc" {
		t.Errorf("rank 1 chain = %s, want the fallback call→wait→calc", got)
	}
}

// TestAnalyzeChainSkipsWarmup: a rank's chain covers the same steps as its
// phase shares. snapFor counts 8 timed steps; rank 0's ring holds steps 0
// to 9, so steps 0 and 1 are warmup. Its 30 ms wait in step 0 is longer
// than any timed chain, and must not be the rank's longest chain.
func TestAnalyzeChainSkipsWarmup(t *testing.T) {
	ms := int64(time.Millisecond)
	evs := []Event{
		{Nanos: 0, Kind: KindStep, Step: 0},
		{Nanos: 1 * ms, Kind: KindWaitStart, Step: 0, Peer: 1, Tag: 7},
		{Nanos: 31 * ms, Kind: KindWaitDone, Step: 0, Peer: 1, Tag: 7},
		{Nanos: 31 * ms, Kind: KindStep, Step: 1},
	}
	for k := int64(2); k < 10; k++ {
		at := 40*ms + 5*ms*(k-2)
		evs = append(evs,
			Event{Nanos: at, Kind: KindStep, Step: int32(k)},
			Event{Nanos: at + 50_000, Kind: KindWaitStart, Step: int32(k), Peer: 1, Tag: 8},
			Event{Nanos: at + 3*ms, Kind: KindWaitDone, Step: int32(k), Peer: 1, Tag: 8})
	}
	fs := &Snapshot{Ranks: []RankLog{{Rank: 0, Events: evs}}}
	r0 := find(t, Analyze(snapFor(t), fs), "0")
	if got := strings.Join(r0.Chain, "→"); got != "step→wait" {
		t.Errorf("chain = %s, want step→wait from a timed step", got)
	}
	if r0.ChainDur < 0.0029 || r0.ChainDur > 0.003 {
		t.Errorf("chain duration = %v, want 2.95ms", r0.ChainDur)
	}
}

// TestWriteReport smoke-checks the rendered text.
func TestWriteReport(t *testing.T) {
	var sb strings.Builder
	if err := WriteReport(&sb, Analyze(snapFor(t), nil)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"impl=Layout", "rank 0", "rank 1", "calc 80.0%", "longest chain:", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeEmptySnapshot: no series, no reports, no panic.
func TestAnalyzeEmptySnapshot(t *testing.T) {
	if got := Analyze(metrics.NewRegistry().Snapshot(), nil); len(got) != 0 {
		t.Errorf("reports from empty snapshot: %+v", got)
	}
}

// recordedRun loads the committed fixture: the metrics snapshot and flight
// artifact of one run, `weak -impl layout -d 16 -I 4 -ranks 2,1,1
// -workers 1 -metrics-out critpath.metrics.json -flight -flight-depth 256
// -flight-out critpath.flight`.
func recordedRun(t *testing.T) (*metrics.Snapshot, *Snapshot) {
	t.Helper()
	ms, err := metrics.LoadSnapshot(filepath.Join("testdata", "critpath.metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ReadFile(filepath.Join("testdata", "critpath.flight"))
	if err != nil {
		t.Fatal(err)
	}
	return ms, fs
}

// TestCritpathReportGolden freezes `flightreport -metrics` on the recorded
// run. Regenerate with: go test ./internal/flight/ -run CritpathReportGolden -update
func TestCritpathReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, Analyze(recordedRun(t))); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "critpath.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("critical-path report drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestCritpathMatchesChromeTrace: reading chains straight off the artifact
// gives what the same analysis gives over the artifact's Chrome export,
// whose timestamps are truncated to microseconds. critpath-chrome.golden is
// that report for the recorded run, taken from the Chrome export: its phase
// lines and chain steps must match exactly. Each chain's duration must
// agree with the one the export yields, to within a microsecond per
// interval on the rank's timeline.
func TestCritpathMatchesChromeTrace(t *testing.T) {
	ms, fs := recordedRun(t)
	var got bytes.Buffer
	if err := WriteReport(&got, Analyze(ms, fs)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "critpath-chrome.golden"))
	if err != nil {
		t.Fatal(err)
	}
	// A chain line ends in its duration, "(1.23ms)"; drop it.
	steps := func(line string) string {
		if i := strings.LastIndex(line, " ("); i >= 0 && strings.Contains(line, "longest chain:") {
			return line[:i]
		}
		return line
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("report has %d lines, the Chrome-trace report %d", len(gl), len(wl))
	}
	for i := range gl {
		if steps(gl[i]) != steps(wl[i]) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}

	events := ToTrace(fs)
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, events); err != nil {
		t.Fatal(err)
	}
	exact, rounded := chainByRank(events, nil), chainByRank(readChromeTrace(t, chrome.Bytes()), nil)
	intervals := map[int]int{}
	for _, e := range events {
		if e.Dur > 0 {
			intervals[e.Rank]++
		}
	}
	if len(exact) != len(fs.Ranks) || len(rounded) != len(exact) {
		t.Fatalf("chains for %d ranks from the artifact, %d from its export; %d ranks recorded",
			len(exact), len(rounded), len(fs.Ranks))
	}
	for rank, ch := range exact {
		rc := rounded[rank]
		if strings.Join(ch.steps, "→") != strings.Join(rc.steps, "→") {
			t.Errorf("rank %d: chain %v, export's %v", rank, ch.steps, rc.steps)
		}
		if d, tol := (ch.dur - rc.dur).Abs(), time.Duration(intervals[rank])*time.Microsecond; d > tol {
			t.Errorf("rank %d: chain lasts %v, export's %v: off by %v > %v", rank, ch.dur, rc.dur, d, tol)
		}
	}
}
