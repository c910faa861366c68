package brick

import "github.com/bricklab/brick/internal/stencil"

// Re-exported stencil types: operators and their application to bricks and
// grids. (The examples import the internal package directly because they
// live in this module; external users reach the same API here.)
type (
	// Stencil is a constant-coefficient stencil operator.
	Stencil = stencil.Stencil
	// StencilPoint is one stencil tap: offset plus coefficient.
	StencilPoint = stencil.Point
)

// StencilPool is the persistent worker-pool type executing stencil kernels
// over contiguous tiles (the role of a rank's OpenMP team).
type StencilPool = stencil.Pool

// Re-exported stencil constructors and kernels. The Apply* kernels divide
// their iteration space over the default worker pool of GOMAXPROCS
// workers, and the *Workers variants take an explicit count (1 = serial).
var (
	// Star7 is the paper's 7-point star (low arithmetic intensity).
	Star7 = stencil.Star7
	// Cube125 is the paper's 5³ 125-point cube (high arithmetic intensity).
	Cube125 = stencil.Cube125
	// Star5 is the 2D 5-point star motivating ghost-cell expansion.
	Star5 = stencil.Star5
	// ApplyBricks applies a stencil to brick storage with a ghost-cell
	// expansion margin.
	ApplyBricks = stencil.ApplyBricks
	// ApplyBricksParallel is ApplyBricks with an explicit worker count.
	ApplyBricksParallel = stencil.ApplyBricksParallel
	// ApplyBricksRange applies to a contiguous storage index range (the
	// building block for overlapping communication with interior compute).
	ApplyBricksRange = stencil.ApplyBricksRange
	// ApplyBricksRangeWorkers is ApplyBricksRange with an explicit worker
	// count.
	ApplyBricksRangeWorkers = stencil.ApplyBricksRangeWorkers
	// ApplyBricksSpans applies to a set of storage spans (e.g. every
	// surface region after an overlapped exchange completes).
	ApplyBricksSpans = stencil.ApplyBricksSpans
	// NewStencilPool builds a dedicated worker pool; most callers use the
	// package default instead.
	NewStencilPool = stencil.NewPool
	// ResolveStencilWorkers resolves a worker count (explicit when
	// positive, else GOMAXPROCS).
	ResolveStencilWorkers = stencil.ResolveWorkers
)
