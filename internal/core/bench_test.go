package core

import (
	"fmt"
	"os"
	"testing"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

// benchExchange measures raw exchange round trips on 8 periodic ranks,
// isolated from stencil computation.
func benchExchange(b *testing.B, dim int, mode string) {
	w := mpi.NewWorld(8)
	b.ResetTimer()
	w.Run(func(c *mpi.Comm) {
		cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		var opts []Option
		order := layout.Surface3D()
		switch mode {
		case "memmap", "shift":
			opts = append(opts, WithPageAlignment(os.Getpagesize()))
		case "basic":
			order = layout.Lexicographic(3)
			opts = append(opts, WithPerRegionMessages())
		}
		d, err := NewBrickDecomp(Shape{8, 8, 8}, [3]int{dim, dim, dim}, 8, 2, order, opts...)
		if err != nil {
			b.Error(err)
			return
		}
		var bs *BrickStorage
		if mode == "memmap" || mode == "shift" {
			if bs, err = d.MmapAllocate(); err != nil {
				b.Error(err)
				return
			}
			defer bs.Close()
		} else {
			bs = d.Allocate()
		}
		ex := NewExchanger(d, cart)
		var run func()
		switch mode {
		case "memmap":
			ev, err := NewExchangeView(ex, bs)
			if err != nil {
				b.Error(err)
				return
			}
			defer ev.Close()
			run = func() { ev.Exchange() }
		case "shift":
			sv, err := NewShiftView(ex, bs)
			if err != nil {
				b.Error(err)
				return
			}
			defer sv.Close()
			run = func() { sv.Exchange() }
		default:
			lx := NewLayoutExchange(ex, bs)
			defer lx.Close()
			run = func() { lx.Exchange() }
		}
		if c.Rank() == 0 {
			_, wire := d.ExchangeBytes()
			b.SetBytes(int64(wire))
		}
		run() // warm
		c.Barrier()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}

func BenchmarkExchange(b *testing.B) {
	for _, dim := range []int{16, 32} {
		for _, mode := range []string{"layout", "basic", "memmap", "shift"} {
			b.Run(fmt.Sprintf("dim%d/%s", dim, mode), func(b *testing.B) {
				benchExchange(b, dim, mode)
			})
		}
	}
}

func BenchmarkDecompBuild(b *testing.B) {
	for _, dim := range []int{32, 64} {
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewBrickDecomp(Shape{8, 8, 8}, [3]int{dim, dim, dim}, 8, 2, layout.Surface3D()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBrickAccessor(b *testing.B) {
	d, err := NewBrickDecomp(Shape{8, 8, 8}, [3]int{32, 32, 32}, 8, 1, layout.Surface3D())
	if err != nil {
		b.Fatal(err)
	}
	bs := d.Allocate()
	bi := d.BrickInfo()
	br := NewBrick(bi, bs, 0)
	dom := d.DomainBricks()
	b.Run("interior", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc += br.At(dom[i%len(dom)], 4, 4, 4)
		}
		_ = acc
	})
	b.Run("cross-brick", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			acc += br.At(dom[i%len(dom)], -1, 4, 9)
		}
		_ = acc
	})
}
