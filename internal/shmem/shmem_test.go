package shmem

import (
	"os"
	"testing"
	"testing/quick"
)

func newTestArena(t *testing.T, size int) *Arena {
	t.Helper()
	a, err := NewArena(size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func TestNewArenaRoundsToPage(t *testing.T) {
	a := newTestArena(t, 100)
	if a.Size() != a.PageSize() {
		t.Errorf("size = %d, want one page (%d)", a.Size(), a.PageSize())
	}
	if a.PageSize() != os.Getpagesize() {
		t.Errorf("page size = %d", a.PageSize())
	}
}

func TestNewArenaInvalidSize(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewArena(n); err == nil {
			t.Errorf("NewArena(%d) succeeded", n)
		}
	}
}

func TestFloat64View(t *testing.T) {
	a := newTestArena(t, 4096)
	f := a.Float64s()
	if len(f) != 4096/8 {
		t.Fatalf("len = %d", len(f))
	}
	f[0] = 3.25
	f[511] = -1
	b := a.Bytes()
	if len(b) < 4096 {
		t.Fatal("short bytes")
	}
	if a.Float64s()[0] != 3.25 || a.Float64s()[511] != -1 {
		t.Error("float view does not alias arena bytes")
	}
}

func TestMapVectorContiguityAndOrder(t *testing.T) {
	a := newTestArena(t, 4*os.Getpagesize())
	ps := a.PageSize()
	fa := a.Float64s()
	perPage := ps / 8
	for i := range fa {
		fa[i] = float64(i / perPage) // page number
	}
	// View of pages 3, 1, 0 in that order.
	v, err := a.MapVector([]Segment{
		{Offset: 3 * ps, Len: ps},
		{Offset: 1 * ps, Len: ps},
		{Offset: 0, Len: ps},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	fv := v.Float64s()
	if len(fv) != 3*perPage {
		t.Fatalf("view len = %d", len(fv))
	}
	v.Gather() // no-op when mapped
	want := []float64{3, 1, 0}
	for p := 0; p < 3; p++ {
		if fv[p*perPage] != want[p] || fv[p*perPage+perPage-1] != want[p] {
			t.Errorf("view page %d = %v, want %v", p, fv[p*perPage], want[p])
		}
	}
}

func TestViewAliasing(t *testing.T) {
	a := newTestArena(t, 2*os.Getpagesize())
	ps := a.PageSize()
	v, err := a.MapVector([]Segment{{Offset: ps, Len: ps}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Write through the arena; read through the view.
	a.Float64s()[ps/8] = 42
	v.Gather()
	if got := v.Float64s()[0]; got != 42 {
		t.Errorf("view read %v after arena write", got)
	}
	if v.Mapped() != a.Mapped() {
		t.Error("view/arena mapped flags disagree")
	}
	if a.Mapped() {
		// In mapped mode aliasing must be immediate both ways, without Gather.
		v.Float64s()[1] = 7
		if got := a.Float64s()[ps/8+1]; got != 7 {
			t.Errorf("arena read %v after view write", got)
		}
		a.Float64s()[ps/8+2] = 11
		if v.Float64s()[2] != 11 {
			t.Error("mapped view not aliasing arena")
		}
	}
}

func TestMapVectorValidation(t *testing.T) {
	a := newTestArena(t, 2*os.Getpagesize())
	ps := a.PageSize()
	bad := [][]Segment{
		nil,
		{},
		{{Offset: -ps, Len: ps}},
		{{Offset: 0, Len: 0}},
		{{Offset: 0, Len: -ps}},
		{{Offset: ps, Len: 2 * ps}}, // beyond end
	}
	for _, segs := range bad {
		if _, err := a.MapVector(segs); err == nil {
			t.Errorf("MapVector(%v) succeeded", segs)
		}
	}
	if a.Mapped() {
		// Unaligned segments are rejected in mapped mode.
		if _, err := a.MapVector([]Segment{{Offset: 8, Len: ps}}); err == nil {
			t.Error("unaligned offset accepted")
		}
		if _, err := a.MapVector([]Segment{{Offset: 0, Len: ps / 2}}); err == nil {
			t.Error("unaligned length accepted")
		}
	}
}

func TestArenaCloseIdempotentAndClosesViews(t *testing.T) {
	a, err := NewArena(os.Getpagesize())
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.MapVector([]Segment{{Offset: 0, Len: a.PageSize()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := v.Close(); err != nil {
		t.Errorf("view close after arena close: %v", err)
	}
	if _, err := a.MapVector([]Segment{{Offset: 0, Len: 8}}); err != ErrClosed {
		t.Errorf("MapVector after close: %v", err)
	}
}

func TestManyViewsOfSamePage(t *testing.T) {
	// The same physical page can appear in many views — the mechanism that
	// lets one surface region feed several neighbors' messages.
	a := newTestArena(t, 2*os.Getpagesize())
	ps := a.PageSize()
	views := make([]*View, 4)
	for i := range views {
		v, err := a.MapVector([]Segment{{Offset: 0, Len: ps}, {Offset: ps, Len: ps}})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	a.Float64s()[0] = 99
	for i, v := range views {
		v.Gather()
		if v.Float64s()[0] != 99 {
			t.Errorf("view %d: %v", i, v.Float64s()[0])
		}
	}
}

func TestViewGatherScatterRoundTripProperty(t *testing.T) {
	a := newTestArena(t, 8*os.Getpagesize())
	ps := a.PageSize()
	f := func(vals []float64, pageSel uint8) bool {
		// Choose a two-page view over pages p and p^1.
		p := int(pageSel) % 7
		v, err := a.MapVector([]Segment{
			{Offset: p * ps, Len: ps},
			{Offset: (p + 1) * ps, Len: ps},
		})
		if err != nil {
			return false
		}
		defer v.Close()
		// Write the two pages through the arena; Gather must bring them
		// into the window in segment order.
		fv := v.Float64s()
		n := min(len(vals), len(fv))
		copy(a.Float64s()[p*ps/8:], vals[:n])
		v.Gather()
		for i := 0; i < n; i++ {
			if fv[i] != vals[i] && !(vals[i] != vals[i]) { // ignore NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMapVector(b *testing.B) {
	a, err := NewArena(64 * os.Getpagesize())
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	ps := a.PageSize()
	segs := []Segment{{Offset: 0, Len: ps}, {Offset: 8 * ps, Len: 2 * ps}, {Offset: 32 * ps, Len: ps}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := a.MapVector(segs)
		if err != nil {
			b.Fatal(err)
		}
		v.Close()
	}
}
