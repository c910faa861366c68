package stencil

import (
	"testing"

	"github.com/bricklab/brick/internal/metrics"
)

// TestPoolMetrics: an instrumented ForRange times every tile, covers every
// index, and busy time balances against the tile histogram's sum.
func TestPoolMetrics(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	reg := metrics.NewRegistry()
	p.SetMetrics(reg)

	const n = 1024
	covered := make([]int32, n)
	p.ForRange(4, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
	snap := reg.Snapshot()
	hs := snap.FindHistograms(metrics.StencilTileSeconds, nil)
	if len(hs) != 1 || hs[0].Count == 0 {
		t.Fatalf("tile histogram: %+v", hs)
	}
	var tiles int64
	for _, c := range snap.Counters {
		if c.Name == metrics.PoolTilesTotal {
			tiles = c.Value
		}
	}
	if uint64(tiles) != hs[0].Count {
		t.Errorf("tiles counter %d != histogram count %d", tiles, hs[0].Count)
	}
	var busy, workers float64
	for _, g := range snap.Gauges {
		switch g.Name {
		case metrics.PoolBusySeconds:
			busy = g.Value
		case metrics.PoolWorkers:
			workers = g.Value
		}
	}
	if busy <= 0 || busy < hs[0].Sum*0.999 || busy > hs[0].Sum*1.001 {
		t.Errorf("busy seconds %v, want ≈ histogram sum %v", busy, hs[0].Sum)
	}
	if workers != 4 {
		t.Errorf("workers gauge = %v, want 4", workers)
	}

	// Detach: further work must not grow the series.
	p.SetMetrics(nil)
	before := hs[0].Count
	p.ForRange(4, n, func(lo, hi int) {})
	after := reg.Snapshot().FindHistograms(metrics.StencilTileSeconds, nil)[0].Count
	if after != before {
		t.Errorf("detached pool still recorded tiles: %d -> %d", before, after)
	}
}

// TestPoolMetricsSingleWorkerPath: the w<=1 inline fast path must also be
// timed when instrumented.
func TestPoolMetricsSingleWorkerPath(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	reg := metrics.NewRegistry()
	p.SetMetrics(reg)
	p.ForRange(1, 16, func(lo, hi int) {
		if lo != 0 || hi != 16 {
			t.Errorf("inline path got [%d,%d)", lo, hi)
		}
	})
	hs := reg.Snapshot().FindHistograms(metrics.StencilTileSeconds, nil)
	if len(hs) != 1 || hs[0].Count != 1 {
		t.Errorf("inline tile not recorded: %+v", hs)
	}
}
