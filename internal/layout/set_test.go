package layout

import (
	"testing"
	"testing/quick"
)

func TestFromDirs(t *testing.T) {
	cases := []struct {
		dirs []int
		str  string
		w    int
	}{
		{[]int{}, "{}", 0},
		{[]int{-1}, "{-1}", 1},
		{[]int{2}, "{+2}", 1},
		{[]int{-1, -2}, "{-1,-2}", 2},
		{[]int{3, -1, 2}, "{-1,+2,+3}", 3},
	}
	for _, c := range cases {
		s := FromDirs(c.dirs...)
		if got := s.String(); got != c.str {
			t.Errorf("FromDirs(%v).String() = %q, want %q", c.dirs, got, c.str)
		}
		if got := s.Weight(); got != c.w {
			t.Errorf("FromDirs(%v).Weight() = %d, want %d", c.dirs, got, c.w)
		}
		if !s.Valid() {
			t.Errorf("FromDirs(%v) not valid", c.dirs)
		}
	}
}

func TestFromDirsPanics(t *testing.T) {
	for _, dirs := range [][]int{{0}, {1, -1}, {2, 2}, {MaxDims + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromDirs(%v) did not panic", dirs)
				}
			}()
			FromDirs(dirs...)
		}()
	}
}

func TestOpposite(t *testing.T) {
	s := FromDirs(-1, 2, -3)
	if got, want := s.Opposite(), FromDirs(1, -2, 3); got != want {
		t.Errorf("Opposite = %v, want %v", got, want)
	}
	// Property: Opposite is an involution and preserves weight/validity.
	f := func(raw uint16) bool {
		s := Set(raw) &^ conjugate(Set(raw)) // make valid by dropping clashes
		o := s.Opposite()
		return o.Opposite() == s && o.Weight() == s.Weight() && o.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHasAndAxis(t *testing.T) {
	s := FromDirs(-1, 3)
	if s.Axis(1) != -1 || s.Axis(2) != 0 || s.Axis(3) != 1 {
		t.Errorf("Axis wrong for %v", s)
	}
}

func TestDirsRoundTrip(t *testing.T) {
	for _, s := range Regions(4) {
		if got := FromDirs(s.Dirs()...); got != s {
			t.Errorf("FromDirs(Dirs(%v)) = %v", s, got)
		}
	}
}

func TestRegionsCount(t *testing.T) {
	want := 1
	for d := 1; d <= 6; d++ {
		want *= 3
		regs := Regions(d)
		if len(regs) != want-1 {
			t.Errorf("Regions(%d) has %d entries, want %d", d, len(regs), want-1)
		}
		seen := map[Set]bool{}
		for _, r := range regs {
			if !r.Valid() || r.Empty() {
				t.Errorf("Regions(%d) contains invalid %v", d, r)
			}
			if seen[r] {
				t.Errorf("Regions(%d) contains duplicate %v", d, r)
			}
			seen[r] = true
		}
	}
}

func TestRegionsPanics(t *testing.T) {
	for _, d := range []int{0, -1, MaxDims + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Regions(%d) did not panic", d)
				}
			}()
			Regions(d)
		}()
	}
}

func TestNeighborsOf(t *testing.T) {
	// Corner region in 2D goes to 3 neighbors; face to 1.
	corner := FromDirs(-1, -2)
	nbs := NeighborsOf(corner)
	if len(nbs) != 3 {
		t.Fatalf("corner has %d destinations, want 3", len(nbs))
	}
	face := FromDirs(-1)
	if got := NeighborsOf(face); len(got) != 1 || got[0] != face {
		t.Errorf("face destinations = %v", got)
	}
	// Property: |NeighborsOf(T)| = 2^|T| - 1 and all are subsets.
	for _, tr := range Regions(3) {
		nbs := NeighborsOf(tr)
		if len(nbs) != pow2(tr.Weight())-1 {
			t.Errorf("NeighborsOf(%v) = %d entries, want %d", tr, len(nbs), pow2(tr.Weight())-1)
		}
		for _, s := range nbs {
			if !s.SubsetOf(tr) || s.Empty() {
				t.Errorf("NeighborsOf(%v) contains %v", tr, s)
			}
		}
	}
}

func TestRegionsFor(t *testing.T) {
	// 3D face neighbor receives 9 regions: 1 face + 4 edges + 4 corners.
	got := RegionsFor(3, FromDirs(-1))
	if len(got) != 9 {
		t.Errorf("face neighbor receives %d regions, want 9", len(got))
	}
	// Edge neighbor receives 3 (itself + 2 corners), corner receives 1.
	if got := RegionsFor(3, FromDirs(-1, -2)); len(got) != 3 {
		t.Errorf("edge neighbor receives %d regions, want 3", len(got))
	}
	if got := RegionsFor(3, FromDirs(-1, -2, -3)); len(got) != 1 {
		t.Errorf("corner neighbor receives %d regions, want 1", len(got))
	}
}

func TestIncidenceDuality(t *testing.T) {
	// r(T) is sent to N(S) iff T is in RegionsFor(S): check both directions.
	for _, tr := range Regions(3) {
		for _, s := range NeighborsOf(tr) {
			found := false
			for _, r2 := range RegionsFor(3, s) {
				if r2 == tr {
					found = true
				}
			}
			if !found {
				t.Errorf("region %v missing from RegionsFor(%v)", tr, s)
			}
		}
	}
}
