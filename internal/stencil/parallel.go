package stencil

import "github.com/bricklab/brick/internal/core"

// ApplyBricksParallel is ApplyBricks with an explicit worker count: the
// brick list is divided into contiguous runs executed by the worker pool
// (the role of a rank's OpenMP team in the paper's experiments — bricks are
// independent units of parallel work, so no synchronization is needed
// within one application). workers <= 0 resolves to GOMAXPROCS; 1 runs
// serially.
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
