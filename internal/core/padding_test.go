package core

import (
	"os"
	"testing"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

func TestPageAlignmentPadding(t *testing.T) {
	// 4³ bricks (512 B) on 4 KiB pages: alignChunks = 8 bricks. Every
	// communication region must start and end on page boundaries.
	const page = 4096
	d, err := NewBrickDecomp(Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1,
		layout.Surface3D(), WithPageAlignment(page))
	if err != nil {
		t.Fatal(err)
	}
	if d.PageBytes() != page {
		t.Errorf("PageBytes = %d", d.PageBytes())
	}
	if d.PadBricks() == 0 {
		t.Error("expected padding bricks for sub-page bricks")
	}
	chunkBytes := 8 * d.Shape().Vol()
	for _, s := range d.Order() {
		sp := d.Surface(s)
		if sp.Start*chunkBytes%page != 0 {
			t.Errorf("surface %v starts at unaligned byte %d", s, sp.Start*chunkBytes)
		}
		if sp.Padded*chunkBytes%page != 0 {
			t.Errorf("surface %v padded length %d not page multiple", s, sp.Padded*chunkBytes)
		}
		if sp.Padded < sp.NBricks {
			t.Errorf("surface %v padded %d < data %d", s, sp.Padded, sp.NBricks)
		}
	}
	data, wire := d.ExchangeBytes()
	if wire <= data {
		t.Errorf("wire bytes %d not greater than data bytes %d", wire, data)
	}
	t.Logf("padding overhead: %.1f%%", 100*float64(wire-data)/float64(data))
}

func TestNoPaddingWhenChunkIsPageMultiple(t *testing.T) {
	// 8³ bricks = 4 KiB chunks on 4 KiB pages: no padding needed.
	d, err := NewBrickDecomp(Shape{8, 8, 8}, [3]int{32, 32, 32}, 8, 1,
		layout.Surface3D(), WithPageAlignment(4096))
	if err != nil {
		t.Fatal(err)
	}
	if d.PadBricks() != 0 {
		t.Errorf("PadBricks = %d, want 0", d.PadBricks())
	}
	data, wire := d.ExchangeBytes()
	if data != wire {
		t.Errorf("data %d != wire %d without padding", data, wire)
	}
}

func TestPaddingLargerPageSweep(t *testing.T) {
	// Larger pages mean more padding — the Fig. 18 / Table 2 mechanism.
	prev := -1
	for _, page := range []int{4096, 16384, 65536} {
		d, err := NewBrickDecomp(Shape{8, 8, 8}, [3]int{32, 32, 32}, 8, 1,
			layout.Surface3D(), WithPageAlignment(page))
		if err != nil {
			t.Fatal(err)
		}
		data, wire := d.ExchangeBytes()
		over := wire - data
		if over < prev {
			t.Errorf("page %d: padding %d decreased from %d", page, over, prev)
		}
		prev = over
	}
}

func TestInvalidPageAlignment(t *testing.T) {
	if _, err := NewBrickDecomp(Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1,
		layout.Surface3D(), WithPageAlignment(100)); err == nil {
		t.Error("non-multiple-of-8 page accepted")
	}
}

func TestExchangeViewNotDegradedWhenAligned(t *testing.T) {
	d, err := NewBrickDecomp(Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1,
		layout.Surface3D(), WithPageAlignment(os.Getpagesize()))
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
		ex := NewExchanger(d, cart)
		bs, err := d.MmapAllocate()
		if err != nil {
			t.Error(err)
			return
		}
		defer bs.Close()
		if !bs.Mapped() {
			t.Skip("no mmap support on this platform")
		}
		ev, err := NewExchangeView(ex, bs)
		if err != nil {
			t.Error(err)
			return
		}
		defer ev.Close()
		if ev.Degraded() {
			t.Error("aligned mapped view reported degraded")
		}
	})
}

func TestPaddedExchangeStillCorrect(t *testing.T) {
	// Full correctness pass with padding enabled on the Layout exchange
	// path too (padding travels inside messages on both sides).
	dom := [3]int{16, 16, 16}
	w := mpi.NewWorld(8)
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		co := cart.MyCoords()
		origin := [3]int{co[2] * dom[0], co[1] * dom[1], co[0] * dom[2]}
		d, err := NewBrickDecomp(Shape{4, 4, 4}, dom, 4, 1,
			layout.Surface3D(), WithPageAlignment(4096))
		if err != nil {
			t.Error(err)
			return
		}
		bs := d.Allocate()
		for z := 0; z < dom[2]; z++ {
			for y := 0; y < dom[1]; y++ {
				for x := 0; x < dom[0]; x++ {
					d.SetElem(bs, 0, x+4, y+4, z+4,
						globalValue(0, origin[0]+x, origin[1]+y, origin[2]+z))
				}
			}
		}
		lx := NewLayoutExchange(NewExchanger(d, cart), bs)
		defer lx.Close()
		lx.Exchange()
		global := [3]int{2 * dom[0], 2 * dom[1], 2 * dom[2]}
		ext := d.ExtDim()
		for z := 0; z < ext[2]; z++ {
			for y := 0; y < ext[1]; y++ {
				for x := 0; x < ext[0]; x++ {
					want := globalValue(0,
						mod(origin[0]+x-4, global[0]),
						mod(origin[1]+y-4, global[1]),
						mod(origin[2]+z-4, global[2]))
					if got := d.Elem(bs, 0, x, y, z); got != want {
						t.Errorf("rank %d (%d,%d,%d): %v != %v", c.Rank(), x, y, z, got, want)
						return
					}
				}
			}
		}
	})
}
