package core

import (
	"os"
	"testing"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

// verifyShift runs the 6-message shift exchange on a periodic rank grid and
// validates every ghost element, mirroring verifyExchange.
func verifyShift(t *testing.T, procs [3]int, dom [3]int, ghost int, mapped bool) {
	t.Helper()
	nRanks := procs[0] * procs[1] * procs[2]
	global := [3]int{procs[0] * dom[0], procs[1] * dom[1], procs[2] * dom[2]}
	w := mpi.NewWorld(nRanks)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{procs[2], procs[1], procs[0]}, []bool{true, true, true})
		co := cart.MyCoords()
		origin := [3]int{co[2] * dom[0], co[1] * dom[1], co[0] * dom[2]}
		var opts []Option
		if mapped {
			opts = append(opts, WithPageAlignment(os.Getpagesize()))
		}
		d, err := NewBrickDecomp(Shape{4, 4, 4}, dom, ghost, 1, layout.Surface3D(), opts...)
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
		for z := 0; z < dom[2]; z++ {
			for y := 0; y < dom[1]; y++ {
				for x := 0; x < dom[0]; x++ {
					d.SetElem(bs, 0, x+ghost, y+ghost, z+ghost,
						globalValue(0, origin[0]+x, origin[1]+y, origin[2]+z))
				}
			}
		}
		ex := NewExchanger(d, cart)
		sv, err := NewShiftView(ex, bs)
		if err != nil {
			t.Error(err)
			return
		}
		defer sv.Close()
		if got := len(sv.Plan().Sends); got != 6 {
			t.Errorf("shift sends %d messages, want 6", got)
		}
		sv.Exchange()
		ext := d.ExtDim()
		for z := 0; z < ext[2]; z++ {
			for y := 0; y < ext[1]; y++ {
				for x := 0; x < ext[0]; x++ {
					want := globalValue(0,
						mod(origin[0]+x-ghost, global[0]),
						mod(origin[1]+y-ghost, global[1]),
						mod(origin[2]+z-ghost, global[2]))
					if got := d.Elem(bs, 0, x, y, z); got != want {
						t.Errorf("rank %d (%d,%d,%d): %v != %v", c.Rank(), x, y, z, got, want)
						return
					}
				}
			}
		}
	})
}

func TestShiftExchange8Ranks(t *testing.T) {
	verifyShift(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, false)
}

func TestShiftExchangeMapped(t *testing.T) {
	verifyShift(t, [3]int{2, 2, 2}, [3]int{16, 16, 16}, 4, true)
}

func TestShiftExchangeAnisotropic(t *testing.T) {
	verifyShift(t, [3]int{2, 2, 2}, [3]int{24, 16, 12}, 4, false)
}

func TestShiftExchange27Ranks(t *testing.T) {
	verifyShift(t, [3]int{3, 3, 3}, [3]int{12, 12, 12}, 4, false)
}

func TestShiftExchangeSingleRank(t *testing.T) {
	verifyShift(t, [3]int{1, 1, 1}, [3]int{16, 16, 16}, 4, false)
}

func TestShiftMessageCountOnWire(t *testing.T) {
	// Each rank must send exactly 6 messages per exchange — the fewest of
	// any method (Layout 42, MemMap 26, Shift 6) at the cost of 3 phases.
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		d := mustDecomp(t, Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D())
		bs := d.Allocate()
		ex := NewExchanger(d, cart)
		sv, err := NewShiftView(ex, bs)
		if err != nil {
			t.Error(err)
			return
		}
		defer sv.Close()
		c.TrafficSnapshot() // drain setup traffic
		sv.Exchange()
		tr := c.TrafficSnapshot()
		if tr.SentMsgs != 6 {
			t.Errorf("rank %d sent %d messages, want 6", c.Rank(), tr.SentMsgs)
		}
		// Shift moves strictly more bytes than the ghost volume (forwarded
		// corner data travels multiple hops) but fewer messages.
		if tr.SentBytes <= 0 {
			t.Error("no bytes sent")
		}
	})
}

func TestShiftRepeatedStable(t *testing.T) {
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		d := mustDecomp(t, Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1, layout.Surface3D())
		bs := d.Allocate()
		for i := range bs.Data {
			bs.Data[i] = float64(c.Rank()*1000000 + i)
		}
		ex := NewExchanger(d, cart)
		sv, err := NewShiftView(ex, bs)
		if err != nil {
			t.Error(err)
			return
		}
		defer sv.Close()
		sv.Exchange()
		snap := append([]float64(nil), bs.Data...)
		sv.Exchange()
		for i := range snap {
			if bs.Data[i] != snap[i] {
				t.Fatalf("element %d changed on repeat", i)
			}
		}
	})
}
