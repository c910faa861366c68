package core

import (
	"testing"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

func TestPaddedExchange16KiB(t *testing.T) {
	for _, page := range []int{4096, 16384, 65536} {
		for _, kind := range []exchangeKind{kindLayout, kindMemMap} {
			dom := [3]int{16, 16, 16}
			ghost := 8
			w := mpi.NewWorld(8)
			w.Run(func(c *mpi.Comm) {
				cart := mpi.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
				co := cart.MyCoords()
				origin := [3]int{co[2] * dom[0], co[1] * dom[1], co[0] * dom[2]}
				d, err := NewBrickDecomp(Shape{8, 8, 8}, dom, ghost, 2, layout.Surface3D(), WithPageAlignment(page))
				if err != nil {
					t.Error(err)
					return
				}
				var bs *BrickStorage
				if kind == kindMemMap {
					bs, err = d.MmapAllocate()
					if err != nil {
						t.Error(err)
						return
					}
					defer bs.Close()
				} else {
					bs = d.Allocate()
				}
				for f := 0; f < 2; f++ {
					for z := 0; z < dom[2]; z++ {
						for y := 0; y < dom[1]; y++ {
							for x := 0; x < dom[0]; x++ {
								d.SetElem(bs, f, x+ghost, y+ghost, z+ghost, globalValue(f, origin[0]+x, origin[1]+y, origin[2]+z))
							}
						}
					}
				}
				ex := NewExchanger(d, cart)
				if kind == kindMemMap {
					ev, err := NewExchangeView(ex, bs)
					if err != nil {
						t.Error(err)
						return
					}
					defer ev.Close()
					ev.Exchange()
				} else {
					lx := NewLayoutExchange(ex, bs)
					defer lx.Close()
					lx.Exchange()
				}
				global := [3]int{32, 32, 32}
				ext := d.ExtDim()
				for f := 0; f < 2; f++ {
					for z := 0; z < ext[2]; z++ {
						for y := 0; y < ext[1]; y++ {
							for x := 0; x < ext[0]; x++ {
								want := globalValue(f, mod(origin[0]+x-ghost, global[0]), mod(origin[1]+y-ghost, global[1]), mod(origin[2]+z-ghost, global[2]))
								if got := d.Elem(bs, f, x, y, z); got != want {
									t.Errorf("page %d kind %d rank %d f%d (%d,%d,%d): %v != %v", page, kind, c.Rank(), f, x, y, z, got, want)
									return
								}
							}
						}
					}
				}
			})
		}
	}
}
