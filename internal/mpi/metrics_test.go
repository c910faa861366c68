package mpi

import (
	"testing"

	"github.com/bricklab/brick/internal/metrics"
)

// TestWorldMetrics runs a small exchange with a registry attached and
// checks the per-message histograms: sizes are exact, every message shows
// up in the latency and match-wait series, and labels carry the rank.
func TestWorldMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	const elements = 32
	w := NewWorld(2)
	w.SetMetrics(reg)
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		buf := make([]float64, elements)
		rx := make([]float64, elements)
		rr := c.Irecv(peer, 7, rx)
		sr := c.Isend(peer, 7, buf)
		rr.Wait()
		sr.Wait()
	})
	snap := reg.Snapshot()
	for rank := 0; rank < 2; rank++ {
		lb := map[string]string{"rank": []string{"0", "1"}[rank]}
		sizes := snap.FindHistograms(metrics.MPISendBytes, lb)
		if len(sizes) != 1 || sizes[0].Count != 1 || sizes[0].Max != 8*elements {
			t.Errorf("rank %d send size histogram: %+v", rank, sizes)
		}
		lat := snap.FindHistograms(metrics.MPISendSeconds, lb)
		if len(lat) != 1 || lat[0].Count != 1 || lat[0].Max < 0 {
			t.Errorf("rank %d send latency histogram: %+v", rank, lat)
		}
		mw := snap.FindHistograms(metrics.MPIRecvMatchWaitSeconds, lb)
		if len(mw) != 1 || mw[0].Count != 1 {
			t.Errorf("rank %d match-wait histogram: %+v", rank, mw)
		}
		rb := snap.FindHistograms(metrics.MPIRecvBytes, lb)
		if len(rb) != 1 || rb[0].Count != 1 || rb[0].Max != 8*elements {
			t.Errorf("rank %d recv size histogram: %+v", rank, rb)
		}
		wt := snap.FindHistograms(metrics.MPIWaitSeconds, lb)
		if len(wt) != 1 || wt[0].Count != 2 { // recv wait + send wait
			t.Errorf("rank %d wait histogram: %+v", rank, wt)
		}
	}
}

// TestWorldMetricsDisabled pins the default: without SetMetrics no series
// are created and nothing panics.
func TestWorldMetricsDisabled(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		rx := make([]float64, 4)
		rr := c.Irecv(peer, 0, rx)
		c.Isend(peer, 0, make([]float64, 4)).Wait()
		rr.Wait()
	})
	// Also the nil-registry path of SetMetrics itself.
	w2 := NewWorld(1)
	w2.SetMetrics(nil)
	w2.Run(func(c *Comm) {})
}

// TestPersistentSendSeconds checks every persistent send cycle records one
// mpi_send_seconds sample on every backend.
func TestPersistentSendSeconds(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		reg := metrics.NewRegistry()
		w.SetMetrics(reg)
		const cycles = 3
		w.Run(func(c *Comm) {
			peer := 1 - c.Rank()
			send := c.SendInit(peer, 1, make([]float64, 8))
			recv := c.RecvInit(peer, 1, make([]float64, 8))
			send2 := c.SendInit(peer, 2, make([]float64, 8))
			recv2 := c.RecvInit(peer, 2, make([]float64, 8))
			reqs := []*Request{recv, recv2, send, send2}
			for i := 0; i < cycles; i++ {
				Startall(reqs)
				Waitall(reqs)
			}
		})
		snap := reg.Snapshot()
		for rank := 0; rank < 2; rank++ {
			lb := map[string]string{"rank": []string{"0", "1"}[rank]}
			lat := snap.FindHistograms(metrics.MPISendSeconds, lb)
			if len(lat) != 1 || lat[0].Count != 2*cycles {
				t.Errorf("rank %d send latency histogram: %+v, want %d samples", rank, lat, 2*cycles)
			}
		}
	})
}
