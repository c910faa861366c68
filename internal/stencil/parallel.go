package stencil

import (
	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/flight"
)

// ApplyBricksParallel is ApplyBricks with an explicit worker count: the
// brick list is divided into contiguous runs executed by the worker pool
// (the role of a rank's OpenMP team in the paper's experiments — bricks are
// independent units of parallel work, so no synchronization is needed
// within one application). workers <= 0 resolves via ResolveWorkers
// (BRICK_WORKERS, then GOMAXPROCS); 1 runs serially.
func ApplyBricksParallel(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin, workers int) {
	ApplyBricksRangeWorkers(dst, src, dec, st, margin, 0, dec.NumBricks(), workers)
}

// ApplyBricksRangeWorkers is ApplyBricksRange with an explicit worker
// count; the [lo, hi) storage-index range is tiled across the pool.
func ApplyBricksRangeWorkers(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin, lo, hi, workers int) {
	checkBrickApply(dec, st, margin)
	if lo < 0 || hi > dec.NumBricks() || lo > hi {
		panic("stencil: brick range out of bounds")
	}
	if lo == hi {
		return
	}
	kr := kernelFor(dec.Shape(), st)
	p := DefaultPool()
	if workers = ResolveWorkers(workers); workers == 1 || hi-lo == 1 {
		t0 := p.tileStart()
		kr.applyRange(dst, src, dec, margin, lo, hi)
		p.tileDone(t0)
		return
	}
	p.ForRange(workers, hi-lo, func(a, b int) {
		kr.applyRange(dst, src, dec, margin, lo+a, lo+b)
	})
}

// ApplyBricksSpans applies the stencil to each [start, end) span of brick
// storage indices, flattening all spans into one tiled iteration space so
// small spans (individual surface regions) still load-balance across the
// pool. Used by the overlapped step to compute every surface region after
// the exchange completes.
func ApplyBricksSpans(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int, spans [][2]int, workers int) {
	checkBrickApply(dec, st, margin)
	total := 0
	for _, sp := range spans {
		if sp[0] < 0 || sp[1] > dec.NumBricks() || sp[0] > sp[1] {
			panic("stencil: brick span out of bounds")
		}
		total += sp[1] - sp[0]
	}
	if total == 0 {
		return
	}
	kr := kernelFor(dec.Shape(), st)
	p := DefaultPool()
	if workers = ResolveWorkers(workers); workers == 1 || total == 1 {
		t0 := p.tileStart()
		kr.applySpans(dst, src, dec, margin, spans, 0, total)
		p.tileDone(t0)
		return
	}
	p.ForRange(workers, total, func(flo, fhi int) {
		kr.applySpans(dst, src, dec, margin, spans, flo, fhi)
	})
}

// applySpans applies the kernel to positions [flo, fhi) of the spans laid
// end to end.
func (kr *brickKernel) applySpans(dst, src core.Brick, dec *core.BrickDecomp, margin int, spans [][2]int, flo, fhi int) {
	start := 0 // flattened start of the span
	for _, sp := range spans {
		lo, hi := max(flo, start), min(fhi, start+sp[1]-sp[0])
		if lo < hi {
			kr.applyRange(dst, src, dec, margin, lo-start+sp[0], hi-start+sp[0])
		}
		start += sp[1] - sp[0]
	}
}

// ApplyBricksTiles applies the stencil over a precomputed tile list (each
// tile a [lo, hi) storage-index range, as produced by TileSpans), invoking
// onTile(t) from the executing worker the moment tile t's bricks are done.
// The partitioned exchange uses this to fire Pready for exactly the spans a
// finished tile produced while sibling tiles are still computing. onTile
// may be nil, in which case this degenerates to a fixed-tiling surface
// pass. Bit-identity: bricks are independent, so any tiling of the same
// index set produces Float64bits-identical results.
func ApplyBricksTiles(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int, tiles [][2]int, workers int, onTile func(tile int)) {
	ApplyBricksTilesFlight(dst, src, dec, st, margin, tiles, workers, onTile, nil)
}

// ApplyBricksTilesFlight is ApplyBricksTiles with a flight ring attached:
// each tile's start and completion is recorded on fl from the executing
// worker, so a post-mortem ring shows which tile a rank was inside — and
// which tile never finished — when the world died. A nil ring records
// nothing.
func ApplyBricksTilesFlight(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int, tiles [][2]int, workers int, onTile func(tile int), fl *flight.Ring) {
	checkBrickApply(dec, st, margin)
	for _, tl := range tiles {
		if tl[0] < 0 || tl[1] > dec.NumBricks() || tl[0] > tl[1] {
			panic("stencil: brick tile out of bounds")
		}
	}
	kr := kernelFor(dec.Shape(), st)
	p := DefaultPool()
	if ResolveWorkers(workers) == 1 || len(tiles) == 1 {
		// Serial: the same per-tile events and callbacks as ForTilesFlight,
		// without the closures it hands to pool workers, which escape and
		// would allocate on every call.
		for t, tl := range tiles {
			fl.Record(flight.KindTileStart, -1, -1, int32(t), 0, 0)
			t0 := p.tileStart()
			kr.applyRange(dst, src, dec, margin, tl[0], tl[1])
			p.tileDone(t0)
			fl.Record(flight.KindTileDone, -1, -1, int32(t), 0, 0)
			if onTile != nil {
				onTile(t)
			}
		}
		return
	}
	p.ForTilesFlight(workers, tiles, func(lo, hi int) {
		kr.applyRange(dst, src, dec, margin, lo, hi)
	}, onTile, fl)
}
