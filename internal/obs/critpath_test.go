package obs

import (
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/flight"
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

// TestAnalyzeChainFromTrace: with a trace, the longest back-to-back event
// chain wins over the fallback.
func TestAnalyzeChainFromTrace(t *testing.T) {
	ms := time.Millisecond
	mkEv := func(kind flight.TraceKind, start, dur time.Duration) flight.TraceEvent {
		return flight.TraceEvent{Rank: 0, Kind: kind, Name: string(kind), Start: start, Dur: dur, Peer: -1}
	}
	events := []flight.TraceEvent{
		// An isolated early event, then the real chain: send, a tile
		// overlapping the flight, wait, surface tile.
		mkEv(flight.TraceRecv, 0, 1*ms),
		mkEv(flight.TraceSend, 10*ms, 2*ms),
		mkEv(flight.TraceTile, 12*ms, 8*ms),
		mkEv(flight.TraceWait, 20*ms, 5*ms),
		mkEv(flight.TraceTile, 25*ms, 4*ms),
	}
	reports := Analyze(snapFor(t), events)
	r0 := find(t, reports, "0")
	if got := strings.Join(r0.Chain, "→"); got != "send→tile→wait→tile" {
		t.Errorf("chain = %s", got)
	}
	if r0.ChainDur < 0.018 || r0.ChainDur > 0.020 {
		t.Errorf("chain duration = %v, want 19ms", r0.ChainDur)
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
