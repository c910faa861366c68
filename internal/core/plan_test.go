package core

import (
	"os"
	"testing"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

// withSingleRank runs fn inside a 1-rank fully-periodic world where every
// neighbor is the rank itself, so persistent self-pairs complete inline and
// the hot path can be measured single-threaded with testing.AllocsPerRun.
func withSingleRank(t *testing.T, mapped bool, fn func(cart *mpi.Cart, d *BrickDecomp, bs *BrickStorage)) {
	t.Helper()
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
		var opts []Option
		if mapped {
			opts = append(opts, WithPageAlignment(os.Getpagesize()))
		}
		d, err := NewBrickDecomp(Shape{4, 4, 4}, [3]int{8, 8, 8}, 4, 2, layout.Surface3D(), opts...)
		if err != nil {
			t.Error(err)
			return
		}
		var bs *BrickStorage
		if mapped {
			if bs, err = d.MmapAllocate(); err != nil {
				t.Error(err)
				return
			}
			defer bs.Close()
		} else {
			bs = d.Allocate()
		}
		fn(cart, d, bs)
	})
}

// TestPersistentHotPathAllocsLayout asserts the Layout per-step hot path —
// Start + Complete over a compiled persistent plan — performs zero heap
// allocations.
func TestPersistentHotPathAllocsLayout(t *testing.T) {
	withSingleRank(t, false, func(cart *mpi.Cart, d *BrickDecomp, bs *BrickStorage) {
		lx := NewLayoutExchange(NewExchanger(d, cart), bs)
		defer lx.Close()
		lx.Exchange() // warm once outside the measurement
		allocs := testing.AllocsPerRun(50, func() {
			lx.Start()
			lx.Complete()
		})
		if allocs != 0 {
			t.Errorf("Layout persistent step allocates %v times, want 0", allocs)
		}
	})
}

// TestPersistentHotPathAllocsMemMap asserts the MemMap per-step hot path is
// allocation-free.
func TestPersistentHotPathAllocsMemMap(t *testing.T) {
	withSingleRank(t, true, func(cart *mpi.Cart, d *BrickDecomp, bs *BrickStorage) {
		ev, err := NewExchangeView(NewExchanger(d, cart), bs)
		if err != nil {
			t.Fatal(err)
		}
		defer ev.Close()
		ev.Exchange()
		allocs := testing.AllocsPerRun(50, func() {
			ev.Start()
			ev.Complete()
		})
		if allocs != 0 {
			t.Errorf("MemMap persistent step allocates %v times, want 0", allocs)
		}
	})
}

// TestPersistentHotPathAllocsMemMapDegraded asserts the MemMap step over
// copy windows — the fill step gathering every window from storage before
// the sends — is allocation-free, both after a mid-run Degrade rebinds the
// mapped views and on heap storage, whose windows are copies from the start.
func TestPersistentHotPathAllocsMemMapDegraded(t *testing.T) {
	for _, mapped := range []bool{true, false} {
		withSingleRank(t, mapped, func(cart *mpi.Cart, d *BrickDecomp, bs *BrickStorage) {
			ev, err := NewExchangeView(NewExchanger(d, cart), bs)
			if err != nil {
				t.Fatal(err)
			}
			defer ev.Close()
			if err := ev.Degrade(DegradeForced); err != nil {
				t.Fatal(err)
			}
			ev.Exchange()
			allocs := testing.AllocsPerRun(50, func() {
				ev.Start()
				ev.Complete()
			})
			if allocs != 0 {
				t.Errorf("degraded MemMap step (mapped storage %v) allocates %v times, want 0", mapped, allocs)
			}
			if ev.Timings().Pack <= 0 {
				t.Errorf("degraded MemMap step (mapped storage %v) charged no Pack", mapped)
			}
		})
	}
}

// TestPersistentHotPathAllocsShift asserts the three-phase Shift Start (and
// its no-op Complete) is allocation-free on mapped storage and on heap
// storage, whose slabs are copy windows gathered and scattered each phase.
func TestPersistentHotPathAllocsShift(t *testing.T) {
	for _, mapped := range []bool{true, false} {
		withSingleRank(t, mapped, func(cart *mpi.Cart, d *BrickDecomp, bs *BrickStorage) {
			sv, err := NewShiftView(NewExchanger(d, cart), bs)
			if err != nil {
				t.Fatal(err)
			}
			defer sv.Close()
			sv.Exchange()
			allocs := testing.AllocsPerRun(50, func() {
				sv.Start()
				sv.Complete()
			})
			if allocs != 0 {
				t.Errorf("Shift step (mapped storage %v) allocates %v times, want 0", mapped, allocs)
			}
			if st := sv.Stats(); st.Starts != 52 {
				t.Errorf("Shift plan starts = %d after 52 exchanges, want one per exchange", st.Starts)
			}
			if !mapped && (!sv.Degraded() || sv.Timings().Pack <= 0) {
				t.Errorf("Shift on heap storage: degraded %v, pack %v; want copy slabs charged to Pack",
					sv.Degraded(), sv.Timings().Pack)
			}
		})
	}
}

// TestPlanDigest checks digest determinism and sensitivity.
func TestPlanDigest(t *testing.T) {
	p := &ExchangePlan{
		Variant: "spans",
		Sends:   []PlanMsg{{Peer: 1, Tag: 3, Bytes: 4096}},
		Recvs:   []PlanMsg{{Peer: 2, Tag: 7, Bytes: 4096}},
	}
	d1 := p.Digest()
	if d1 != p.Digest() {
		t.Error("digest not deterministic")
	}
	q := *p
	q.Sends = []PlanMsg{{Peer: 1, Tag: 3, Bytes: 8192}}
	if q.Digest() == d1 {
		t.Error("digest insensitive to payload size")
	}
	q = *p
	q.Variant = "memmap"
	if q.Digest() == d1 {
		t.Error("digest insensitive to variant")
	}
}

// TestPlanCloseRebuild verifies Close releases the persistent endpoints so
// a rebuilt plan pairs with its own new endpoints rather than cross-
// matching stale ones.
func TestPlanCloseRebuild(t *testing.T) {
	withSingleRank(t, false, func(cart *mpi.Cart, d *BrickDecomp, bs *BrickStorage) {
		ex := NewExchanger(d, cart)
		lx := NewLayoutExchange(ex, bs)
		lx.Exchange()
		first := lx.Plan().Digest()
		if err := lx.Close(); err != nil {
			t.Fatal(err)
		}
		lx2 := NewLayoutExchange(ex, bs)
		defer lx2.Close()
		lx2.Exchange()
		if lx2.Plan().Digest() != first {
			t.Errorf("rebuilt plan digest changed: %s vs %s", lx2.Plan().Digest(), first)
		}
		if st := lx2.Stats(); st.Starts != 1 {
			t.Errorf("rebuilt plan starts = %d, want 1", st.Starts)
		}
	})
}

// TestPlanStatsAccumulate verifies the reuse counters track every start.
func TestPlanStatsAccumulate(t *testing.T) {
	withSingleRank(t, false, func(cart *mpi.Cart, d *BrickDecomp, bs *BrickStorage) {
		lx := NewLayoutExchange(NewExchanger(d, cart), bs)
		defer lx.Close()
		const n = 5
		for i := 0; i < n; i++ {
			lx.Exchange()
		}
		st := lx.Stats()
		if st.Starts != n {
			t.Errorf("starts = %d, want %d", st.Starts, n)
		}
		if want := int64(n) * lx.Plan().SendBytes(); st.StartBytes != want {
			t.Errorf("start bytes = %d, want %d", st.StartBytes, want)
		}
	})
}
