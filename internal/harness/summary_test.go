package harness

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func TestEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.Stddev() != 0 || s.Sum() != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

func TestSingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.N() != 1 || s.Min() != 3.5 || s.Max() != 3.5 || s.Mean() != 3.5 {
		t.Errorf("single: %+v", s)
	}
	if s.Variance() != 0 {
		t.Errorf("single variance = %g", s.Variance())
	}
}

func TestKnownValues(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !almostEqual(s.Mean(), 5) {
		t.Errorf("mean = %g, want 5", s.Mean())
	}
	if !almostEqual(s.Stddev(), 2) {
		t.Errorf("stddev = %g, want 2", s.Stddev())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
	if !almostEqual(s.Sum(), 40) {
		t.Errorf("sum = %g, want 40", s.Sum())
	}
}

func TestAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Millisecond)
	if !almostEqual(s.Mean(), 1.5) {
		t.Errorf("duration mean = %g", s.Mean())
	}
}

func TestNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-3)
	s.Add(1)
	if s.Min() != -3 || s.Max() != 1 || !almostEqual(s.Mean(), -1) {
		t.Errorf("negative: %+v", s)
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	// Observations are timings: bounded, non-negative magnitudes. Map the
	// generator's raw values into [0, 1e6) so the check is not about float
	// overflow, nor about mixed-sign samples whose near-zero mean defeats
	// the relative tolerance.
	bound := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = math.Abs(math.Mod(x, 1e6))
			if math.IsNaN(out[i]) {
				out[i] = 0
			}
		}
		return out
	}
	f := func(a, b []float64) bool {
		a, b = bound(a), bound(b)
		var whole, left, right Summary
		for _, x := range a {
			whole.Add(x)
			left.Add(x)
		}
		for _, x := range b {
			whole.Add(x)
			right.Add(x)
		}
		left.Merge(right)
		return left.N() == whole.N() &&
			almostEqual(left.Mean(), whole.Mean()) &&
			almostEqual(left.Variance(), whole.Variance()) &&
			left.Min() == whole.Min() && left.Max() == whole.Max()
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Merge(b) // merging empty is a no-op
	if a.N() != 1 {
		t.Error("merge with empty changed N")
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 1 {
		t.Error("merge into empty failed")
	}
}

func TestReset(t *testing.T) {
	var s Summary
	s.Add(5)
	s.Reset()
	if s.N() != 0 || s.Mean() != 0 {
		t.Error("reset did not clear")
	}
}

func TestStringFormat(t *testing.T) {
	var s Summary
	s.Add(0.001)
	s.Add(0.003)
	got := s.String()
	want := "[1.000e-03, 2.000e-03, 3.000e-03] (σ: 1.00e-03)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestNumericalStability(t *testing.T) {
	// Large offset, tiny variance: naive sum-of-squares would catastrophically
	// cancel; Welford must not.
	var s Summary
	base := 1e9
	for i := 0; i < 1000; i++ {
		s.Add(base + float64(i%2)) // alternates base, base+1
	}
	if math.Abs(s.Variance()-0.25) > 1e-6 {
		t.Errorf("variance = %g, want 0.25", s.Variance())
	}
}
