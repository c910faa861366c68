package grid

import (
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

func TestNewGrid(t *testing.T) {
	g := New([3]int{8, 4, 2}, 2)
	if g.Ext != [3]int{12, 8, 6} {
		t.Errorf("ext = %v", g.Ext)
	}
	if len(g.Data) != 12*8*6 {
		t.Errorf("len = %d", len(g.Data))
	}
	g.Set(3, 2, 1, 5)
	if g.At(3, 2, 1) != 5 {
		t.Error("at/set")
	}
	if g.Idx(1, 0, 0) != 1 || g.Idx(0, 1, 0) != 12 || g.Idx(0, 0, 1) != 96 {
		t.Error("i must be fastest")
	}
}

func TestNewGridPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New([3]int{0, 4, 4}, 1) },
		func() { New([3]int{4, 4, 4}, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		}()
	}
}

func TestRegions(t *testing.T) {
	g := New([3]int{8, 8, 8}, 2)
	// Face send region +i: last ghost-width slab of the domain, full extent
	// on other axes.
	lo, hi := g.SendRegion(layout.FromDirs(1))
	if lo != [3]int{8, 2, 2} || hi != [3]int{10, 10, 10} {
		t.Errorf("send +i region = %v..%v", lo, hi)
	}
	// Face recv region +i: the ghost slab beyond the domain.
	lo, hi = g.RecvRegion(layout.FromDirs(1))
	if lo != [3]int{10, 2, 2} || hi != [3]int{12, 10, 10} {
		t.Errorf("recv +i region = %v..%v", lo, hi)
	}
	// Corner send region: ghost³ cube at the domain corner.
	lo, hi = g.SendRegion(layout.FromDirs(-1, -2, -3))
	if lo != [3]int{2, 2, 2} || hi != [3]int{4, 4, 4} {
		t.Errorf("corner send = %v..%v", lo, hi)
	}
	if RegionCount(lo, hi) != 8 {
		t.Error("corner count")
	}
	// Recv regions of distinct directions are disjoint; send regions of a
	// face and its adjacent corner overlap (standard packed exchange).
	rlo1, rhi1 := g.RecvRegion(layout.FromDirs(-1))
	rlo2, rhi2 := g.RecvRegion(layout.FromDirs(-1, -2))
	if overlap(rlo1, rhi1, rlo2, rhi2) {
		t.Error("recv regions overlap")
	}
	slo1, shi1 := g.SendRegion(layout.FromDirs(-1))
	slo2, shi2 := g.SendRegion(layout.FromDirs(-1, -2))
	if !overlap(slo1, shi1, slo2, shi2) {
		t.Error("send face and corner should overlap")
	}
}

func overlap(alo, ahi, blo, bhi [3]int) bool {
	for a := 0; a < 3; a++ {
		if ahi[a] <= blo[a] || bhi[a] <= alo[a] {
			return false
		}
	}
	return true
}

func TestPackUnpackRoundTrip(t *testing.T) {
	g := New([3]int{8, 8, 8}, 2)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	lo, hi := g.SendRegion(layout.FromDirs(1, -2))
	buf := make([]float64, RegionCount(lo, hi))
	if n := g.Pack(lo, hi, buf); n != len(buf) {
		t.Fatalf("packed %d, want %d", n, len(buf))
	}
	// Clear the region, unpack, verify restoration.
	g2 := New([3]int{8, 8, 8}, 2)
	g2.Unpack(lo, hi, buf)
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			for i := lo[0]; i < hi[0]; i++ {
				if g2.At(i, j, k) != g.At(i, j, k) {
					t.Fatalf("(%d,%d,%d) mismatch", i, j, k)
				}
			}
		}
	}
	// Outside untouched.
	if g2.At(0, 0, 0) != 0 {
		t.Error("unpack leaked")
	}
}

func TestPackMatchesSubarray(t *testing.T) {
	g := New([3]int{8, 6, 4}, 2)
	for i := range g.Data {
		g.Data[i] = float64(3*i + 1)
	}
	for _, s := range layout.Regions(3) {
		lo, hi := g.SendRegion(s)
		a := make([]float64, RegionCount(lo, hi))
		b := make([]float64, RegionCount(lo, hi))
		g.Pack(lo, hi, a)
		g.Subarray(lo, hi).Pack(g.Data, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("region %v element %d: pack %v vs subarray %v", s, i, a[i], b[i])
			}
		}
	}
}

func gval(x, y, z int) float64 { return float64(z)*1e6 + float64(y)*1e3 + float64(x) }

// cycle runs one full Start/Complete exchange.
func cycle(e core.Exchanger) {
	e.Start()
	e.Complete()
}

// verifyGridExchange checks full periodic ghost correctness for either
// exchanger kind ("pack", "overlap", or "types") through the compiled
// Start/Complete path, over two consecutive cycles: the first moves a
// negated field, the second the real one over the same endpoints, so stale
// ghosts from cycle one would fail the element-by-element check. The
// "overlap" kind writes the interior cells while cycle two is in flight.
func verifyGridExchange(t *testing.T, kind string) {
	t.Helper()
	dom := [3]int{8, 8, 8}
	const ghost = 2
	procs := [3]int{2, 2, 2}
	global := [3]int{16, 16, 16}
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{procs[2], procs[1], procs[0]}, []bool{true, true, true})
		co := cart.MyCoords()
		origin := [3]int{co[2] * dom[0], co[1] * dom[1], co[0] * dom[2]}
		g := New(dom, ghost)
		// fill writes sign × the global value over the domain cells whose
		// distance from the domain boundary is in [lo, hi): [0, ghost) is the
		// surface shell every send region lies in, [ghost, ∞) the interior.
		fill := func(sign float64, lo, hi int) {
			for z := 0; z < dom[2]; z++ {
				for y := 0; y < dom[1]; y++ {
					for x := 0; x < dom[0]; x++ {
						depth := min(x, y, z, dom[0]-1-x, dom[1]-1-y, dom[2]-1-z)
						if depth < lo || depth >= hi {
							continue
						}
						g.Set(x+ghost, y+ghost, z+ghost, sign*gval(origin[0]+x, origin[1]+y, origin[2]+z))
					}
				}
			}
		}
		var e core.Exchanger
		var types *TypesExchanger
		if kind == "types" {
			types = NewTypesExchanger(g, cart)
			e = types
		} else {
			e = NewPackExchanger(g, cart)
		}
		defer e.Close()
		fill(-1, 0, dom[0])
		cycle(e)
		if kind == "overlap" {
			fill(1, 0, ghost)
			e.Start()
			fill(1, ghost, dom[0])
			e.Complete()
		} else {
			fill(1, 0, dom[0])
			cycle(e)
		}
		if types != nil && types.Elems <= 0 {
			t.Error("datatype engine processed no elements")
		}
		if tm := e.Timings(); tm.Pack <= 0 || tm.Call <= 0 || tm.Wait < 0 {
			t.Errorf("timings not recorded: %+v", tm)
		}
		if st := e.Stats(); st.Starts != 2 {
			t.Errorf("plan starts = %d, want 2", st.Starts)
		}
		for z := 0; z < g.Ext[2]; z++ {
			for y := 0; y < g.Ext[1]; y++ {
				for x := 0; x < g.Ext[0]; x++ {
					want := gval(
						mod(origin[0]+x-ghost, global[0]),
						mod(origin[1]+y-ghost, global[1]),
						mod(origin[2]+z-ghost, global[2]))
					if got := g.At(x, y, z); got != want {
						t.Errorf("rank %d (%d,%d,%d): %v != %v", c.Rank(), x, y, z, got, want)
						return
					}
				}
			}
		}
	})
}

func mod(a, n int) int { return ((a % n) + n) % n }

// TestStagedHotPathAllocs asserts the YASK pack and MPI_Types steps —
// Start and Complete with their pack/unpack or datatype walks — are
// allocation-free on a one-rank periodic world, where every neighbor is the
// rank itself and each cycle completes inline.
func TestStagedHotPathAllocs(t *testing.T) {
	for _, kind := range []string{"pack", "types"} {
		mpi.NewWorld(1).Run(func(c *mpi.Comm) {
			cart := mpi.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
			g := New([3]int{8, 8, 8}, 2)
			var e core.Exchanger
			if kind == "types" {
				e = NewTypesExchanger(g, cart)
			} else {
				e = NewPackExchanger(g, cart)
			}
			defer e.Close()
			cycle(e)
			allocs := testing.AllocsPerRun(50, func() { cycle(e) })
			if allocs != 0 {
				t.Errorf("%s step allocates %v times, want 0", kind, allocs)
			}
		})
	}
}

func TestPackExchange(t *testing.T)    { verifyGridExchange(t, "pack") }
func TestOverlapExchange(t *testing.T) { verifyGridExchange(t, "overlap") }
func TestTypesExchange(t *testing.T)   { verifyGridExchange(t, "types") }

func TestPackExchangeMessageCount(t *testing.T) {
	// One message per neighbor: 26 sends per rank.
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		g := New([3]int{8, 8, 8}, 2)
		e := NewPackExchanger(g, cart)
		defer e.Close()
		c.TrafficSnapshot() // drain setup traffic
		cycle(e)
		if tr := c.TrafficSnapshot(); tr.SentMsgs != 26 {
			t.Errorf("sent %d messages, want 26", tr.SentMsgs)
		}
	})
}

func TestSingleRankPeriodicGridExchange(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
		g := New([3]int{8, 8, 8}, 2)
		for z := 0; z < 8; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					g.Set(x+2, y+2, z+2, gval(x, y, z))
				}
			}
		}
		e := NewPackExchanger(g, cart)
		defer e.Close()
		cycle(e)
		// Ghost at (-1) wraps to domain element 7.
		if got, want := g.At(1, 2, 2), gval(7, 0, 0); got != want {
			t.Errorf("wrap ghost = %v, want %v", got, want)
		}
	})
}

func TestPackTimingsAccounting(t *testing.T) {
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		g := New([3]int{8, 8, 8}, 2)
		e := NewPackExchanger(g, cart)
		defer e.Close()
		cycle(e)
		tm := e.Timings()
		if tm.Pack <= 0 {
			t.Error("pack time not recorded")
		}
		if tm.Call <= 0 {
			t.Error("call time not recorded")
		}
		if tm.Wait < 0 {
			t.Error("negative wait")
		}
	})
}

func TestPackExchangerReusable(t *testing.T) {
	// Start/Complete cycles must be repeatable with stable results.
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		g := New([3]int{8, 8, 8}, 2)
		co := cart.MyCoords()
		for z := 0; z < 8; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					g.Set(x+2, y+2, z+2, gval(co[2]*8+x, co[1]*8+y, co[0]*8+z))
				}
			}
		}
		e := NewPackExchanger(g, cart)
		defer e.Close()
		cycle(e)
		snap := append([]float64(nil), g.Data...)
		for i := 0; i < 3; i++ {
			cycle(e)
		}
		for i := range snap {
			if g.Data[i] != snap[i] {
				t.Fatalf("element %d changed across exchanges", i)
			}
		}
	})
}

func TestTypesExchangerElemsAccumulate(t *testing.T) {
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		g := New([3]int{8, 8, 8}, 2)
		e := NewTypesExchanger(g, cart)
		defer e.Close()
		cycle(e)
		first := e.Elems
		cycle(e)
		if e.Elems != 2*first || first <= 0 {
			t.Errorf("engine elems: first %d, after second %d", first, e.Elems)
		}
	})
}

func TestSubarrayCountsMatchRegions(t *testing.T) {
	g := New([3]int{8, 6, 4}, 2)
	for _, s := range layout.Regions(3) {
		lo, hi := g.SendRegion(s)
		if got := g.Subarray(lo, hi).Count(); got != RegionCount(lo, hi) {
			t.Errorf("region %v: subarray %d, count %d", s, got, RegionCount(lo, hi))
		}
	}
}
