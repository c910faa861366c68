package mpi

import (
	"sync/atomic"
	"testing"
)

func TestBarrier(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var before, after int64
	w.Run(func(c *Comm) {
		atomic.AddInt64(&before, 1)
		c.Barrier()
		// Everyone must have passed "before" by now.
		if got := atomic.LoadInt64(&before); got != n {
			t.Errorf("rank %d passed barrier with before=%d", c.Rank(), got)
		}
		atomic.AddInt64(&after, 1)
	})
	if after != n {
		t.Errorf("after = %d", after)
	}
}

func TestBarrierReusable(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	var counter int64
	w.Run(func(c *Comm) {
		for i := 0; i < 25; i++ {
			atomic.AddInt64(&counter, 1)
			c.Barrier()
			if got := atomic.LoadInt64(&counter); got != int64(n*(i+1)) {
				t.Errorf("iteration %d: counter=%d, want %d", i, got, n*(i+1))
			}
			c.Barrier()
		}
	})
}

func TestAllreduceSum(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		got := c.Allreduce1(OpSum, float64(c.Rank()))
		want := float64(n * (n - 1) / 2)
		if got != want {
			t.Errorf("rank %d: sum = %v, want %v", c.Rank(), got, want)
		}
	})
}

func TestAllreduceMinMaxVector(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		r := float64(c.Rank())
		mins := c.Allreduce(OpMin, []float64{r, -r})
		maxs := c.Allreduce(OpMax, []float64{r, -r})
		if mins[0] != 0 || mins[1] != -float64(n-1) {
			t.Errorf("min = %v", mins)
		}
		if maxs[0] != float64(n-1) || maxs[1] != 0 {
			t.Errorf("max = %v", maxs)
		}
	})
}

func TestAllreduceRepeated(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for i := 0; i < 50; i++ {
			got := c.Allreduce1(OpSum, 1)
			if got != n {
				t.Fatalf("iteration %d: %v", i, got)
			}
		}
	})
}

func TestGather(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		parts := c.Gather([]float64{float64(c.Rank() * 10)})
		if c.Rank() == 0 {
			if len(parts) != n {
				t.Fatalf("gathered %d parts", len(parts))
			}
			for r, p := range parts {
				if len(p) != 1 || p[0] != float64(r*10) {
					t.Errorf("part[%d] = %v", r, p)
				}
			}
		} else if parts != nil {
			t.Errorf("rank %d got non-nil gather result", c.Rank())
		}
	})
}

func TestGatherRepeated(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		for i := 0; i < 20; i++ {
			parts := c.Gather([]float64{float64(i)})
			if c.Rank() == 0 && parts[2][0] != float64(i) {
				t.Fatalf("iteration %d: %v", i, parts)
			}
		}
	})
}

func TestOpApplyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown op did not panic")
		}
	}()
	Op(99).apply(1, 2)
}

func TestCart3D(t *testing.T) {
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		ct := NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		co := ct.MyCoords()
		if got := ct.Rank(co); got != c.Rank() {
			t.Errorf("coords round trip: %v -> %d, want %d", co, got, c.Rank())
		}
		// Periodic wrap: moving +2 along any axis in a 2-wide grid is home.
		if got := ct.Neighbor([]int{2, 0, 0}); got != c.Rank() {
			t.Errorf("periodic wrap -> %d", got)
		}
		// In 2^3 periodic, +1 and -1 along an axis reach the same rank.
		a := ct.Neighbor([]int{0, 0, 1})
		b := ct.Neighbor([]int{0, 0, -1})
		if a != b {
			t.Errorf("+1/-1 neighbors differ: %d %d", a, b)
		}
	})
}

func TestCartNonPeriodicBoundary(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		ct := NewCart(c, []int{4}, []bool{false})
		src, dst := ct.Shift(0, 1)
		if c.Rank() == 3 && dst != -1 {
			t.Errorf("rank 3 dst = %d, want -1", dst)
		}
		if c.Rank() == 0 && src != -1 {
			t.Errorf("rank 0 src = %d, want -1", src)
		}
		if c.Rank() == 1 && (src != 0 || dst != 2) {
			t.Errorf("rank 1 shift = %d,%d", src, dst)
		}
	})
}

func TestCartShiftPeriodic(t *testing.T) {
	w := NewWorld(6)
	w.Run(func(c *Comm) {
		ct := NewCart(c, []int{2, 3}, []bool{true, true})
		src, dst := ct.Shift(1, 1)
		co := ct.MyCoords()
		wantDst := ct.Rank([]int{co[0], co[1] + 1})
		wantSrc := ct.Rank([]int{co[0], co[1] - 1})
		if src != wantSrc || dst != wantDst {
			t.Errorf("shift = %d,%d want %d,%d", src, dst, wantSrc, wantDst)
		}
	})
}

func TestCartCoordsRowMajor(t *testing.T) {
	w := NewWorld(12)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		ct := NewCart(c, []int{2, 2, 3}, []bool{false, false, false})
		_ = ct
	})
	// Row-major: rank 0 -> (0,0,0), rank 1 -> (0,0,1), rank 3 -> (0,1,0).
	w2 := NewWorld(12)
	w2.Run(func(c *Comm) {
		ct := NewCart(c, []int{2, 2, 3}, []bool{false, false, false})
		if c.Rank() == 0 {
			if co := ct.Coords(1); co[2] != 1 || co[1] != 0 || co[0] != 0 {
				t.Errorf("Coords(1) = %v", co)
			}
			if co := ct.Coords(3); co[2] != 0 || co[1] != 1 || co[0] != 0 {
				t.Errorf("Coords(3) = %v", co)
			}
			if co := ct.Coords(6); co[0] != 1 {
				t.Errorf("Coords(6) = %v", co)
			}
		}
	})
}

func TestCartValidation(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, f := range []func(){
			func() { NewCart(c, []int{3}, []bool{false}) },         // size mismatch
			func() { NewCart(c, []int{4}, []bool{false, true}) },   // len mismatch
			func() { NewCart(c, []int{0, 4}, []bool{true, true}) }, // zero dim
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("invalid cart did not panic")
					}
				}()
				f()
			}()
		}
	})
}
