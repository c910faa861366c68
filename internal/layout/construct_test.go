package layout

import "testing"

func TestConstructOptimalForLowDims(t *testing.T) {
	want := []int{2, 9, 42} // Eq. 1 for D = 1..3
	for d := 1; d <= 3; d++ {
		order := Construct(d)
		if err := ValidateOrder(d, order); err != nil {
			t.Fatalf("Construct(%d): %v", d, err)
		}
		if got := MessageCount(order); got != want[d-1] {
			t.Errorf("Construct(%d) = %d messages, want %d", d, got, want[d-1])
		}
	}
}

func TestConstructNearOptimalHighDims(t *testing.T) {
	// The recursive template is not provably optimal beyond D=3; it must
	// stay within 3% of Eq. 1 (measured: 213/209 and 1064/1042).
	for d := 4; d <= 5; d++ {
		order := Construct(d)
		if err := ValidateOrder(d, order); err != nil {
			t.Fatalf("Construct(%d): %v", d, err)
		}
		got := MessageCount(order)
		limit := OptimalMessages(d) * 103 / 100
		if got > limit {
			t.Errorf("Construct(%d) = %d messages, want ≤ %d (3%% over Eq. 1)", d, got, limit)
		}
	}
}

func TestConstructPanics(t *testing.T) {
	for _, d := range []int{0, MaxDims + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Construct(%d) did not panic", d)
				}
			}()
			Construct(d)
		}()
	}
}

func TestPolishImprovesOrNeutral(t *testing.T) {
	// The optimizer's local search must never make an ordering worse, and
	// must preserve the permutation property.
	for d := 2; d <= 4; d++ {
		order := append([]Set(nil), Regions(d)...) // lexicographic start
		before := MessageCount(order)
		localSearch(order, newRNG(9))
		after := MessageCount(order)
		if after > before {
			t.Errorf("D=%d: polish worsened %d -> %d", d, before, after)
		}
		if err := ValidateOrder(d, order); err != nil {
			t.Errorf("D=%d: polish broke the permutation: %v", d, err)
		}
	}
}

func TestPolishReachesOptimumFrom3DConstruction(t *testing.T) {
	order := Construct(3)
	localSearch(order, newRNG(0))
	if got := MessageCount(order); got != 42 {
		t.Errorf("polished Construct(3) = %d", got)
	}
}
