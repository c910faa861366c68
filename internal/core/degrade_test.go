package core

import (
	"math"
	"os"
	"testing"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

// TestExchangeMemMapUnmappedParity: forced-unmapped arena storage (the
// injected form of a runtime shm failure) must produce a fully correct
// exchange on every platform, Linux included.
func TestExchangeMemMapUnmappedParity(t *testing.T) {
	verifyExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D(), kindMemMapUnmapped)
}

// memMapRun drives a multi-step MemMap exchange on 8 ranks and returns
// each rank's final storage as raw float64 bits plus its plan's degraded
// reason. alloc picks the storage flavor; degradeAt (-1 = never) calls
// ExchangeView.Degrade between steps, exercising the mid-run fallback.
func memMapRun(t *testing.T, alloc func(*BrickDecomp) (*BrickStorage, error), degradeAt int) (bits [][]uint64, reasons []string) {
	t.Helper()
	const steps = 3
	dom := [3]int{16, 16, 16}
	ghost, fields := 4, 1
	bits = make([][]uint64, 8)
	reasons = make([]string, 8)
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		co := cart.MyCoords()
		origin := [3]int{co[2] * dom[0], co[1] * dom[1], co[0] * dom[2]}
		d, err := NewBrickDecomp(Shape{4, 4, 4}, dom, ghost, fields, layout.Surface3D(),
			WithPageAlignment(os.Getpagesize()))
		if err != nil {
			t.Error(err)
			return
		}
		bs, err := alloc(d)
		if err != nil {
			t.Error(err)
			return
		}
		defer bs.Close()
		for z := 0; z < dom[2]; z++ {
			for y := 0; y < dom[1]; y++ {
				for x := 0; x < dom[0]; x++ {
					d.SetElem(bs, 0, x+ghost, y+ghost, z+ghost,
						globalValue(0, origin[0]+x, origin[1]+y, origin[2]+z))
				}
			}
		}
		ev, err := NewExchangeView(NewExchanger(d, cart), bs)
		if err != nil {
			t.Error(err)
			return
		}
		defer ev.Close()
		for s := 0; s < steps; s++ {
			ev.Exchange()
			// A deterministic compute-like update so post-degrade steps send
			// fresh surface data, proving the copy windows re-gather.
			for z := 0; z < dom[2]; z++ {
				for y := 0; y < dom[1]; y++ {
					for x := 0; x < dom[0]; x++ {
						v := d.Elem(bs, 0, x+ghost, y+ghost, z+ghost)
						d.SetElem(bs, 0, x+ghost, y+ghost, z+ghost, v*1.25+1)
					}
				}
			}
			if s == degradeAt {
				if err := ev.Degrade(DegradeForced); err != nil {
					t.Errorf("Degrade: %v", err)
					return
				}
				if !ev.Degraded() {
					t.Error("Degrade did not mark the exchanger degraded")
				}
			}
		}
		ev.Exchange() // one more so the degraded windows carry the last update
		out := make([]uint64, len(bs.Data))
		for i, v := range bs.Data {
			out[i] = math.Float64bits(v)
		}
		bits[c.Rank()] = out
		reasons[c.Rank()] = ev.Plan().Summary().Degraded
	})
	return bits, reasons
}

func compareBits(t *testing.T, a, b [][]uint64, label string) {
	t.Helper()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("%s: rank %d storage sizes differ: %d vs %d", label, r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("%s: rank %d element %d differs: %x vs %x", label, r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestExchangeUnmappedBitIdenticalToMapped: a run on forced-unmapped
// storage must be bit-identical to the mapped run — degradation changes
// data movement cost, never results.
func TestExchangeUnmappedBitIdenticalToMapped(t *testing.T) {
	mapped, mr := memMapRun(t, (*BrickDecomp).MmapAllocate, -1)
	unmapped, ur := memMapRun(t, (*BrickDecomp).MmapAllocateUnmapped, -1)
	compareBits(t, mapped, unmapped, "mapped vs unmapped")
	for r, reason := range ur {
		if reason != DegradeUnmappedArena {
			t.Errorf("rank %d unmapped reason = %q, want %q", r, reason, DegradeUnmappedArena)
		}
	}
	// On platforms with real mapping the reference run must be full service.
	if mr[0] == DegradeHeapStorage {
		t.Errorf("mapped run reported heap storage")
	}
}

// TestExchangeMidRunDegradeBitIdentical: degrading mapped views to copy
// windows between steps — rebinding the persistent sends to the new
// windows — must leave every subsequent step bit-identical to the run that
// never degraded.
func TestExchangeMidRunDegradeBitIdentical(t *testing.T) {
	clean, cr := memMapRun(t, (*BrickDecomp).MmapAllocate, -1)
	degraded, dr := memMapRun(t, (*BrickDecomp).MmapAllocate, 1)
	compareBits(t, clean, degraded, "clean vs mid-run degraded")
	for r := range dr {
		if dr[r] != DegradeForced {
			t.Errorf("rank %d degraded reason = %q, want %q", r, dr[r], DegradeForced)
		}
		if cr[r] != "" {
			t.Errorf("rank %d clean run reason = %q, want empty", r, cr[r])
		}
	}
}

// TestExchangeMapFailureDegradesInsteadOfFailing: a mapped arena whose
// surface runs cannot be mapped (not page-aligned, because the decomp was
// built without WithPageAlignment) used to fail plan compilation; it must
// now degrade those neighbors to copy windows and still exchange
// correctly.
func TestExchangeMapFailureDegradesInsteadOfFailing(t *testing.T) {
	dom := [3]int{16, 16, 16}
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		d := mustDecomp(t, Shape{4, 4, 4}, dom, 4, 1, layout.Surface3D()) // no page alignment
		bs, err := d.MmapAllocate()
		if err != nil {
			t.Error(err)
			return
		}
		defer bs.Close()
		if !bs.Mapped() {
			t.Skip("no real mapping on this platform; fallback covered elsewhere")
		}
		ev, err := NewExchangeView(NewExchanger(d, cart), bs)
		if err != nil {
			t.Errorf("NewExchangeView failed instead of degrading: %v", err)
			return
		}
		defer ev.Close()
		if !ev.Degraded() || ev.Plan().Degraded != DegradeMapFailed {
			t.Errorf("degraded=%v reason=%q, want map-failed fallback", ev.Degraded(), ev.Plan().Degraded)
		}
		ev.Exchange()
	})
}
