// Package brick is the public API of the Go brick library, a reproduction
// of "Improving Communication by Optimizing On-Node Data Movement with Data
// Layout" (Zhao, Hall, Johansen, Williams — PPoPP '21).
//
// The library provides fine-grained data blocking (bricks) with
// logical-to-physical indirection, communication-optimal physical layouts
// (42 messages instead of 98 for a 3D ghost-zone exchange), memory-mapped
// per-neighbor views (MemMap: one message per neighbor, zero copies), an
// in-process MPI-like runtime to run multi-rank experiments, stencil
// operators with ghost-cell expansion, and a GPU data-movement simulator.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	world := brick.NewWorld(8)
//	world.Run(func(c *brick.Comm) {
//		cart := brick.NewCart(c, []int{2, 2, 2}, []bool{true, true, true})
//		dec, _ := brick.NewBrickDecomp(brick.Shape{8, 8, 8},
//			[3]int{64, 64, 64}, 8, 2, brick.Surface3D())
//		storage := dec.Allocate()
//		ex := brick.NewLayoutExchange(brick.NewExchanger(dec, cart), storage)
//		defer ex.Close()
//		// ... initialize, then per timestep:
//		ex.Exchange()              // pack-free, 42 messages, plan reused
//		// apply stencil via stencil.ApplyBricks
//	})
package brick

import (
	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

// Re-exported core types: fine-grained data blocking and the pack-free
// exchange.
type (
	// Shape is the per-axis brick extent (i,j,k); the paper uses {8,8,8}.
	Shape = core.Shape
	// BrickInfo is the logical adjacency structure over bricks.
	BrickInfo = core.BrickInfo
	// BrickStorage is the flat physical storage with interleaved fields.
	BrickStorage = core.BrickStorage
	// Brick is an element accessor resolving cross-brick indices.
	Brick = core.Brick
	// BrickDecomp is a subdomain decomposition with a communication-
	// optimized brick order.
	BrickDecomp = core.BrickDecomp
	// Exchanger is the unified Plan/Start/Complete/Close lifecycle every
	// exchange variant implements.
	Exchanger = core.Exchanger
	// BrickExchanger is the topology + span plan every brick exchange
	// variant binds to storage.
	BrickExchanger = core.BrickExchanger
	// Engine is the compiled persistent exchange every variant runs;
	// NewLayoutExchange returns one with no on-node copies (Basic/Layout).
	Engine = core.Engine
	// ExchangePlan is a compiled, immutable per-step message plan.
	ExchangePlan = core.ExchangePlan
	// PlanSummary is the compact serializable description of a plan.
	PlanSummary = core.PlanSummary
	// ExchangeView runs the MemMap exchange (one message per neighbor).
	ExchangeView = core.ExchangeView
	// ShiftView runs the dimension-by-dimension Shift exchange (6 messages).
	ShiftView = core.ShiftView
	// Span is a contiguous run of bricks in storage.
	Span = core.Span
	// MsgSpec is one message of the exchange plan.
	MsgSpec = core.MsgSpec
	// Option customizes a decomposition.
	Option = core.Option
)

// Re-exported constructors and options.
var (
	// NewBrickDecomp builds a decomposition; see core.NewBrickDecomp.
	NewBrickDecomp = core.NewBrickDecomp
	// NewBrick builds an element accessor for one field.
	NewBrick = core.NewBrick
	// NewBrickInfo builds an empty adjacency table.
	NewBrickInfo = core.NewBrickInfo
	// NewBrickStorage allocates heap-backed storage.
	NewBrickStorage = core.NewBrickStorage
	// NewMappedBrickStorage allocates shared-memory storage for MemMap.
	NewMappedBrickStorage = core.NewMappedBrickStorage
	// NewExchanger binds a decomposition to a Cartesian topology.
	NewExchanger = core.NewExchanger
	// NewLayoutExchange compiles the span plan into a persistent Exchanger.
	NewLayoutExchange = core.NewLayoutExchange
	// NewExchangeView builds per-neighbor MemMap views.
	NewExchangeView = core.NewExchangeView
	// NewShiftView builds the three-phase Shift exchange views.
	NewShiftView = core.NewShiftView
	// WithPageAlignment pads communication regions to page multiples.
	WithPageAlignment = core.WithPageAlignment
	// WithPerRegionMessages selects the paper's Basic message plan.
	WithPerRegionMessages = core.WithPerRegionMessages
)

// Re-exported layout types: the region algebra and optimal surface orders.
type (
	// Set is a set of signed axis directions naming a region or neighbor.
	Set = layout.Set
)

// Re-exported layout functions.
var (
	// FromDirs builds a direction set from signed 1-based axes.
	FromDirs = layout.FromDirs
	// Surface3D is the optimal 42-message 3D ordering.
	Surface3D = layout.Surface3D
	// Surface2D is the optimal 9-message 2D ordering (paper Figure 3).
	Surface2D = layout.Surface2D
	// Lexicographic is the unoptimized block order.
	Lexicographic = layout.Lexicographic
	// Optimize searches for a minimal-message ordering.
	Optimize = layout.Optimize
	// Construct builds a layout recursively (optimal for D ≤ 3).
	Construct = layout.Construct
	// MessageCount evaluates an ordering.
	MessageCount = layout.MessageCount
	// OptimalMessages is the paper's Eq. 1 closed form.
	OptimalMessages = layout.OptimalMessages
	// NumNeighbors is the paper's Eq. 2 closed form.
	NumNeighbors = layout.NumNeighbors
	// BasicMessages is the paper's Eq. 3 closed form.
	BasicMessages = layout.BasicMessages
	// Regions enumerates the 3^D−1 surface regions.
	Regions = layout.Regions
)

// Re-exported runtime types: the in-process MPI-like world.
type (
	// World owns the ranks of one run.
	World = mpi.World
	// Comm is one rank's communicator.
	Comm = mpi.Comm
	// Cart is a Cartesian topology over a communicator.
	Cart = mpi.Cart
	// Request is an in-flight nonblocking operation.
	Request = mpi.Request
	// Op is a reduction operator for Allreduce.
	Op = mpi.Op
)

// Reduction operators.
const (
	OpSum = mpi.OpSum
	OpMin = mpi.OpMin
	OpMax = mpi.OpMax
)

// Re-exported runtime constructors.
var (
	// NewWorld creates an in-process world with the given rank count.
	NewWorld = mpi.NewWorld
	// NewCart builds a Cartesian topology (dims ordered k,j,i).
	NewCart = mpi.NewCart
	// Waitall completes a set of requests.
	Waitall = mpi.Waitall
)
