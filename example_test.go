package brick_test

import (
	"fmt"

	brick "github.com/bricklab/brick"
)

// The optimal 3D surface layout needs 42 messages for 26 neighbors, against
// 98 for the Basic per-region plan — the paper's Table 1 row for D=3.
func ExampleSurface3D() {
	order := brick.Surface3D()
	fmt.Println("regions:", len(order))
	fmt.Println("messages:", brick.MessageCount(order))
	fmt.Println("neighbors:", brick.NumNeighbors(3))
	fmt.Println("basic:", brick.BasicMessages(3))
	// Output:
	// regions: 26
	// messages: 42
	// neighbors: 26
	// basic: 98
}

// The optimizer recovers the Eq. 1 optimum from scratch.
func ExampleOptimize() {
	order := brick.Optimize(2)
	fmt.Println("2D messages:", brick.MessageCount(order), "- optimal:", brick.OptimalMessages(2))
	// Output:
	// 2D messages: 9 - optimal: 9
}

// Direction sets use the paper's notation: r({A1-, A2+}) is FromDirs(-1, 2).
func ExampleFromDirs() {
	corner := brick.FromDirs(-1, -2, -3)
	face := brick.FromDirs(2)
	fmt.Println(corner, "weight", corner.Weight())
	fmt.Println(face, "subset of corner:", face.SubsetOf(corner))
	fmt.Println(brick.FromDirs(-2), "subset of corner:", brick.FromDirs(-2).SubsetOf(corner))
	// Output:
	// {-1,-2,-3} weight 3
	// {+2} subset of corner: false
	// {-2} subset of corner: true
}

// A complete single-rank periodic setup: decompose, exchange, inspect the
// message plan.
func ExampleNewBrickDecomp() {
	world := brick.NewWorld(1)
	world.Run(func(c *brick.Comm) {
		cart := brick.NewCart(c, []int{1, 1, 1}, []bool{true, true, true})
		dec, err := brick.NewBrickDecomp(brick.Shape{8, 8, 8},
			[3]int{32, 32, 32}, 8, 1, brick.Surface3D())
		if err != nil {
			panic(err)
		}
		storage := dec.Allocate()
		ex := brick.NewLayoutExchange(brick.NewExchanger(dec, cart), storage)
		defer ex.Close()
		sent := ex.Exchange()
		fmt.Println("messages per exchange:", sent)
		fmt.Println("bricks:", dec.NumBricks(), "interior:", dec.Interior().NBricks)
	})
	// Output:
	// messages per exchange: 42
	// bricks: 216 interior: 8
}
