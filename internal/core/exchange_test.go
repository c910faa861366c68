package core

import (
	"os"
	"testing"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

// globalValue is an injective function of global element coordinates and
// field, used to verify that exchanged ghost data is exactly the right
// neighbor's data.
func globalValue(f, x, y, z int) float64 {
	return float64(f)*1e11 + float64(z)*1e7 + float64(y)*1e3 + float64(x)
}

// exchangeKind selects which exchange implementation the harness verifies.
type exchangeKind int

const (
	kindLayout exchangeKind = iota // compiled Layout plan Start/Complete, two cycles
	kindMemMap
	kindMemMapHeap
	kindMemMapUnmapped // arena storage with mapping forced off (degraded)
)

// verifyExchange runs a full periodic exchange on a procs[0]×procs[1]×procs[2]
// rank grid (i,j,k order) and checks every extended-domain element,
// including all ghost elements, against the global field.
func verifyExchange(t *testing.T, procs [3]int, dom [3]int, ghost, fields int,
	order []layout.Set, kind exchangeKind) {
	t.Helper()
	nRanks := procs[0] * procs[1] * procs[2]
	global := [3]int{procs[0] * dom[0], procs[1] * dom[1], procs[2] * dom[2]}
	w := mpi.NewWorld(nRanks)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{procs[2], procs[1], procs[0]}, []bool{true, true, true})
		co := cart.MyCoords() // (k,j,i)
		origin := [3]int{co[2] * dom[0], co[1] * dom[1], co[0] * dom[2]}

		var opts []Option
		if kind == kindMemMap || kind == kindMemMapUnmapped {
			opts = append(opts, WithPageAlignment(os.Getpagesize()))
		}
		d, err := NewBrickDecomp(Shape{4, 4, 4}, dom, ghost, fields, order, opts...)
		if err != nil {
			t.Error(err)
			return
		}
		var bs *BrickStorage
		switch kind {
		case kindMemMap:
			bs, err = d.MmapAllocate()
		case kindMemMapUnmapped:
			bs, err = d.MmapAllocateUnmapped()
		default:
			bs = d.Allocate()
		}
		if err != nil {
			t.Error(err)
			return
		}
		if bs.arena != nil {
			defer bs.Close()
		}

		// fill writes sign × the global value over the domain proper (not
		// ghosts).
		fill := func(sign float64) {
			for f := 0; f < fields; f++ {
				for z := 0; z < dom[2]; z++ {
					for y := 0; y < dom[1]; y++ {
						for x := 0; x < dom[0]; x++ {
							v := sign * globalValue(f, origin[0]+x, origin[1]+y, origin[2]+z)
							d.SetElem(bs, f, x+ghost, y+ghost, z+ghost, v)
						}
					}
				}
			}
		}
		fill(1)

		ex := NewExchanger(d, cart)
		switch kind {
		case kindLayout:
			// The first cycle moves a negated field, the second the real one
			// over the same endpoints: stale ghosts from cycle one would fail
			// the check below, so endpoint reuse is verified element by element.
			lx := NewLayoutExchange(ex, bs)
			defer lx.Close()
			fill(-1)
			lx.Start()
			lx.Complete()
			fill(1)
			lx.Start()
			lx.Complete()
			if st := lx.Stats(); st.Starts != 2 {
				t.Errorf("plan starts = %d, want 2", st.Starts)
			}
		case kindMemMap, kindMemMapHeap, kindMemMapUnmapped:
			ev, err := NewExchangeView(ex, bs)
			if err != nil {
				t.Error(err)
				return
			}
			defer ev.Close()
			if n := len(ev.Plan().Sends); n > layout.NumNeighbors(3) {
				t.Errorf("MemMap sends %d messages, more than %d neighbors", n, layout.NumNeighbors(3))
			}
			ev.Exchange()
		}

		// Every extended element must now hold the correct (periodically
		// wrapped) global value.
		ext := d.ExtDim()
		for f := 0; f < fields; f++ {
			for z := 0; z < ext[2]; z++ {
				for y := 0; y < ext[1]; y++ {
					for x := 0; x < ext[0]; x++ {
						gx := mod(origin[0]+x-ghost, global[0])
						gy := mod(origin[1]+y-ghost, global[1])
						gz := mod(origin[2]+z-ghost, global[2])
						want := globalValue(f, gx, gy, gz)
						got := d.Elem(bs, f, x, y, z)
						if got != want {
							t.Errorf("rank %d field %d ext(%d,%d,%d): got %v want %v",
								c.Rank(), f, x, y, z, got, want)
							return
						}
					}
				}
			}
		}
	})
}

func mod(a, n int) int { return ((a % n) + n) % n }

// verifyLayoutExchange checks the compiled span exchange over two cycles of
// the same endpoints.
func verifyLayoutExchange(t *testing.T, procs [3]int, dom [3]int, ghost, fields int, order []layout.Set) {
	t.Helper()
	verifyExchange(t, procs, dom, ghost, fields, order, kindLayout)
}

func TestExchangeLayout8Ranks(t *testing.T) {
	verifyLayoutExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D())
}

func TestExchangeBasicLayout8Ranks(t *testing.T) {
	verifyLayoutExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 1, layout.Lexicographic(3))
}

func TestExchangeLayoutSmallestDomain(t *testing.T) {
	// dom = 2·ghost: only corner regions carry data.
	verifyLayoutExchange(t, [3]int{2, 2, 2}, [3]int{8, 8, 8}, 4, 1, layout.Surface3D())
}

func TestExchangeLayoutAnisotropic(t *testing.T) {
	verifyLayoutExchange(t, [3]int{2, 2, 2}, [3]int{24, 16, 12}, 4, 1, layout.Surface3D())
}

func TestExchangeLayoutMultiField(t *testing.T) {
	verifyLayoutExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 3, layout.Surface3D())
}

func TestExchangeLayoutSingleRankPeriodic(t *testing.T) {
	// One rank, fully periodic: every ghost wraps onto the rank itself.
	verifyLayoutExchange(t, [3]int{1, 1, 1}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D())
}

func TestExchangeLayout27Ranks(t *testing.T) {
	verifyLayoutExchange(t, [3]int{3, 3, 3}, [3]int{12, 12, 12}, 4, 1, layout.Surface3D())
}

func TestExchangeLayoutAnisotropicRankGrid(t *testing.T) {
	verifyLayoutExchange(t, [3]int{4, 2, 1}, [3]int{12, 12, 12}, 4, 1, layout.Surface3D())
}

func TestExchangeMemMap8Ranks(t *testing.T) {
	verifyExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D(), kindMemMap)
}

func TestExchangeMemMapSmallestDomain(t *testing.T) {
	verifyExchange(t, [3]int{2, 2, 2}, [3]int{8, 8, 8}, 4, 1, layout.Surface3D(), kindMemMap)
}

func TestExchangeMemMapMultiField(t *testing.T) {
	verifyExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 2, layout.Surface3D(), kindMemMap)
}

func TestExchangeMemMapBasicOrder(t *testing.T) {
	// The paper notes MemMap does not depend on an optimized layout.
	verifyExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 1, layout.Lexicographic(3), kindMemMap)
}

func TestExchangeMemMapHeapFallback(t *testing.T) {
	// Heap-backed storage must still produce a correct (degraded) exchange.
	verifyExchange(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D(), kindMemMapHeap)
}

func TestExchangeViewDegradedFlag(t *testing.T) {
	d := mustDecomp(t, Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D())
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
		ex := NewExchanger(d, cart)
		heap := d.Allocate()
		ev, err := NewExchangeView(ex, heap)
		if err != nil {
			t.Error(err)
			return
		}
		defer ev.Close()
		if !ev.Degraded() {
			t.Error("heap-backed view not marked degraded")
		}
	})
}

func TestExchangeNonPeriodicBoundary(t *testing.T) {
	// 2×1×1 rank grid, non-periodic along i: ghosts facing the open
	// boundary must remain untouched (zero), interior faces exchange.
	dom := [3]int{16, 16, 16}
	ghost := 4
	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{1, 1, 2}, []bool{true, true, false})
		d := mustDecomp(t, Shape{4, 4, 4}, dom, ghost, 1, layout.Surface3D())
		bs := d.Allocate()
		co := cart.MyCoords()
		origin := co[2] * dom[0]
		for z := 0; z < dom[2]; z++ {
			for y := 0; y < dom[1]; y++ {
				for x := 0; x < dom[0]; x++ {
					d.SetElem(bs, 0, x+ghost, y+ghost, z+ghost, globalValue(0, origin+x, y, z))
				}
			}
		}
		ex := NewLayoutExchange(NewExchanger(d, cart), bs)
		defer ex.Close()
		ex.Exchange()
		// Rank 0's low-i ghost face is an open boundary: must be zero.
		if c.Rank() == 0 {
			for z := ghost; z < ghost+dom[2]; z++ {
				if got := d.Elem(bs, 0, 0, ghost+1, z); got != 0 {
					t.Errorf("open-boundary ghost modified: %v", got)
					return
				}
			}
			// Its high-i ghost must hold rank 1's data.
			want := globalValue(0, dom[0], 0, 0)
			if got := d.Elem(bs, 0, ghost+dom[0], ghost, ghost); got != want {
				t.Errorf("interior face ghost = %v, want %v", got, want)
			}
		}
	})
}

func TestExchangeMessageCountsOnWire(t *testing.T) {
	// The traffic counters must agree with the layout's message count: on a
	// large periodic rank grid every rank sends exactly MessageCount(order)
	// messages with Layout and NumNeighbors with MemMap.
	for _, tc := range []struct {
		order []layout.Set
		kind  exchangeKind
		want  int
	}{
		{layout.Surface3D(), kindLayout, 42},
		{layout.Lexicographic(3), kindLayout, layout.MessageCount(layout.Lexicographic(3))},
		{layout.Surface3D(), kindMemMap, 26},
	} {
		w := mpi.NewWorld(8)
		w.Run(func(c *mpi.Comm) {
			cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
			var opts []Option
			if tc.kind == kindMemMap {
				opts = append(opts, WithPageAlignment(os.Getpagesize()))
			}
			d, err := NewBrickDecomp(Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1, tc.order, opts...)
			if err != nil {
				t.Error(err)
				return
			}
			var bs *BrickStorage
			if tc.kind == kindMemMap {
				bs, err = d.MmapAllocate()
				if err != nil {
					t.Error(err)
					return
				}
				defer bs.Close()
			} else {
				bs = d.Allocate()
			}
			ex := NewExchanger(d, cart)
			c.TrafficSnapshot() // drain setup traffic
			switch tc.kind {
			case kindLayout:
				lx := NewLayoutExchange(ex, bs)
				defer lx.Close()
				lx.Exchange()
			default:
				ev, err := NewExchangeView(ex, bs)
				if err != nil {
					t.Error(err)
					return
				}
				defer ev.Close()
				ev.Exchange()
			}
			tr := c.TrafficSnapshot()
			if tr.SentMsgs != int64(tc.want) {
				t.Errorf("rank %d sent %d messages, want %d", c.Rank(), tr.SentMsgs, tc.want)
			}
			if tr.RecvMsgs != int64(tc.want) {
				t.Errorf("rank %d received %d messages, want %d", c.Rank(), tr.RecvMsgs, tc.want)
			}
		})
	}
}

func TestExchangeRepeatedIsStable(t *testing.T) {
	// Repeating the exchange must be idempotent once ghosts are filled.
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		d := mustDecomp(t, Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D())
		bs := d.Allocate()
		for i := range bs.Data {
			bs.Data[i] = float64(c.Rank()*1000000 + i)
		}
		ex := NewLayoutExchange(NewExchanger(d, cart), bs)
		defer ex.Close()
		ex.Exchange()
		snapshot := append([]float64(nil), bs.Data...)
		for i := 0; i < 3; i++ {
			ex.Exchange()
		}
		for i := range snapshot {
			if bs.Data[i] != snapshot[i] {
				t.Fatalf("element %d changed on repeat: %v -> %v", i, snapshot[i], bs.Data[i])
			}
		}
	})
}
