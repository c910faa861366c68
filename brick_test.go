package brick_test

import (
	"testing"

	brick "github.com/bricklab/brick"
)

// TestPublicAPISmoke exercises the facade end to end: world, topology,
// decomposition, both exchanges, and the layout helpers.
func TestPublicAPISmoke(t *testing.T) {
	if got := brick.MessageCount(brick.Surface3D()); got != 42 {
		t.Fatalf("Surface3D messages = %d", got)
	}
	if brick.OptimalMessages(3) != 42 || brick.NumNeighbors(3) != 26 || brick.BasicMessages(3) != 98 {
		t.Fatal("closed forms wrong through facade")
	}
	if len(brick.Regions(2)) != 8 {
		t.Fatal("Regions through facade")
	}
	if s := brick.FromDirs(-1, 2); s.String() != "{-1,+2}" {
		t.Fatalf("FromDirs = %v", s)
	}

	world := brick.NewWorld(8)
	world.Run(func(c *brick.Comm) {
		cart := brick.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
		dec, err := brick.NewBrickDecomp(brick.Shape{4, 4, 4}, [3]int{16, 16, 16}, 4, 1, brick.Surface3D())
		if err != nil {
			t.Error(err)
			return
		}
		storage := dec.Allocate()
		dec.SetElem(storage, 0, 4, 4, 4, float64(c.Rank()+1))
		ex := brick.NewLayoutExchange(brick.NewExchanger(dec, cart), storage)
		defer ex.Close()
		if n := ex.Exchange(); n != 42 {
			t.Errorf("exchange sent %d messages", n)
		}
		// Collective through the facade.
		sum := c.Allreduce1(brick.OpSum, 1)
		if sum != 8 {
			t.Errorf("allreduce = %v", sum)
		}
	})
}

func TestPublicOptimize(t *testing.T) {
	order := brick.Optimize(2)
	if brick.MessageCount(order) != 9 {
		t.Errorf("Optimize(2) = %d messages", brick.MessageCount(order))
	}
}

func TestStencilFacade(t *testing.T) {
	st := brick.Star7()
	if len(st.Points) != 7 || st.Radius != 1 {
		t.Fatalf("Star7 through facade: %d points", len(st.Points))
	}
	if len(brick.Cube125().Points) != 125 || len(brick.Star5().Points) != 5 {
		t.Fatal("stencil constructors")
	}
	// A complete facade-only stencil step.
	world := brick.NewWorld(1)
	world.Run(func(c *brick.Comm) {
		cart := brick.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
		dec, err := brick.NewBrickDecomp(brick.Shape{4, 4, 4}, [3]int{8, 8, 8}, 4, 2, brick.Surface3D())
		if err != nil {
			t.Error(err)
			return
		}
		storage := dec.Allocate()
		info := dec.BrickInfo()
		dec.SetElem(storage, 0, 8, 8, 8, 64.0)
		ex := brick.NewLayoutExchange(brick.NewExchanger(dec, cart), storage)
		defer ex.Close()
		ex.Exchange()
		brick.ApplyBricks(brick.NewBrick(info, storage, 1), brick.NewBrick(info, storage, 0), dec, st, 0)
		sum := 0.0
		for z := 0; z < 8; z++ {
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					sum += dec.Elem(storage, 1, x+4, y+4, z+4)
				}
			}
		}
		if diff := sum - 64.0; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("facade stencil step lost mass: %v", sum)
		}
	})
}
