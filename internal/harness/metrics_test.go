package harness

import (
	"fmt"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// TestRunMetrics runs every CPU implementation, at both exchange periods,
// with a registry attached and checks the snapshot invariants the
// critical-path report and bench consumers rely on: one calc-phase series per rank plus
// the rank="all" aggregate, each with exactly Steps observations, ordered
// quantiles, and traffic counters matching the message plan.
func TestRunMetrics(t *testing.T) {
	for _, c := range schedCells() {
		im := c.im
		t.Run(c.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg := c.apply(Config{
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
			})
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for rank := 0; rank < 2; rank++ {
				for _, phase := range []string{PhaseCalc, PhasePack, PhaseCall, PhaseWait} {
					hs := snap.FindHistograms(metrics.PhaseSeconds, map[string]string{
						"impl": im.String(), "rank": fmt.Sprint(rank), "phase": phase})
					if len(hs) != 1 {
						t.Fatalf("rank %d phase %s: %d series, want 1", rank, phase, len(hs))
					}
					if hs[0].Count != uint64(cfg.Steps) {
						t.Errorf("rank %d phase %s: %d observations, want %d", rank, phase, hs[0].Count, cfg.Steps)
					}
					if hs[0].P50 > hs[0].P90 || hs[0].P90 > hs[0].P99 || hs[0].P99 > hs[0].Max {
						t.Errorf("rank %d phase %s: unordered quantiles %+v", rank, phase, hs[0])
					}
				}
			}
			agg := snap.FindHistograms(metrics.PhaseSeconds, map[string]string{
				"impl": im.String(), "rank": "all", "phase": PhaseCalc})
			if len(agg) != 1 || agg[0].Count != uint64(2*cfg.Steps) {
				t.Errorf("aggregate calc series: %+v", agg)
			}
			// Calc time must actually be observed (nonzero work happened).
			if agg[0].Sum <= 0 {
				t.Error("aggregate calc sum is zero")
			}
			// Traffic counters mirror the per-exchange message plan
			// (sends initiated = msgs/exchange × exchanges, warmup included).
			var sent int64
			for _, c := range snap.Counters {
				if c.Name == metrics.MPISentMsgsTotal && c.Labels["rank"] == "0" {
					sent = c.Value
				}
			}
			if res.MsgsPerExchange > 0 && sent == 0 {
				t.Error("sent-message counter missing despite a message plan")
			}
			// End-of-run gauges.
			var gst, msgs float64
			for _, g := range snap.Gauges {
				switch {
				case g.Name == metrics.GStencilsGauge && g.Labels["impl"] == im.String():
					gst = g.Value
				case g.Name == metrics.MsgsPerExchangeGauge && g.Labels["impl"] == im.String():
					msgs = g.Value
				}
			}
			if gst <= 0 {
				t.Errorf("GStencils gauge = %v", gst)
			}
			if int(msgs) != res.MsgsPerExchange {
				t.Errorf("msgs gauge = %v, want %d", msgs, res.MsgsPerExchange)
			}
		})
	}
}

// TestRunMetricsDisabled: a nil registry stays nil-cost and the result is
// bit-identical to an instrumented run (metrics must not perturb the
// computation).
func TestRunMetricsDisabled(t *testing.T) {
	cfg := Config{
		Impl:    Layout,
		Procs:   [3]int{1, 1, 1},
		Dom:     [3]int{16, 16, 16},
		Ghost:   8,
		Shape:   core.Shape{8, 8, 8},
		Stencil: stencil.Star7(),
		Steps:   3,
		Warmup:  0,
		Machine: netmodel.ThetaKNL(),
		Workers: 1,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = metrics.NewRegistry()
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Checksum != instrumented.Checksum {
		t.Errorf("metrics changed the computation: checksum %v vs %v", plain.Checksum, instrumented.Checksum)
	}
}
