package stencil

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/metrics"
)

// This file implements the per-rank compute worker pool: a persistent team
// of goroutines that executes the stencil kernels over contiguous tiles of
// the iteration space (k-slabs of rows for grids, runs of bricks for brick
// storage). It plays the role of a rank's OpenMP team in the paper's
// experiments — without it, nothing would keep the cores busy while an
// overlapped exchange is in flight.
//
// A resolved worker count of 1 bypasses the pool entirely (zero overhead
// on single-core hosts).

// ResolveWorkers resolves a requested worker count: positive values are
// taken as-is, otherwise GOMAXPROCS — the whole process for one caller.
// The experiment harness resolves a rank's default itself, as its share
// of the host (harness.Config.Workers), and passes it here explicitly.
func ResolveWorkers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// tilesPerWorker controls tile granularity: each ForRange call splits its
// iteration space into about this many tiles per worker, so faster workers
// steal slack from slower ones while tiles stay contiguous (cache-friendly
// k-slab tiling).
const tilesPerWorker = 4

// Pool is a persistent team of worker goroutines executing range tiles.
// All methods are safe for concurrent use: many ranks (goroutines) may
// share one pool, each running its own ForRange concurrently.
type Pool struct {
	workers int
	tasks   chan func()
	pm      atomic.Pointer[poolMetrics] // nil unless SetMetrics attached one
}

// poolMetrics caches the pool's instrument series so the per-tile path
// never touches the registry lock.
type poolMetrics struct {
	tileSeconds *metrics.Histogram
	queueDepth  *metrics.Gauge
	tilesTotal  *metrics.Counter
	busySeconds *metrics.Gauge
}

// SetMetrics attaches a registry: every tile execution is timed into the
// stencil_tile_seconds histogram, the queue depth is sampled at each
// submit, and accumulated busy time (for utilization: busy / (workers ×
// wall)) is exported. A nil registry detaches. Safe to call concurrently
// with running ForRange calls; tiles already in flight finish under the
// previous setting.
func (p *Pool) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		p.pm.Store(nil)
		return
	}
	reg.Describe(metrics.StencilTileSeconds, "Per-tile stencil kernel execution time (seconds).")
	reg.Describe(metrics.PoolQueueDepth, "Worker-pool tasks queued at submit time.")
	reg.Describe(metrics.PoolTilesTotal, "Tiles executed by the worker pool.")
	reg.Describe(metrics.PoolBusySeconds, "Accumulated worker busy time (seconds).")
	reg.Describe(metrics.PoolWorkers, "Worker count of the pool.")
	reg.Gauge(metrics.PoolWorkers, nil).Set(float64(p.workers))
	p.pm.Store(&poolMetrics{
		tileSeconds: reg.Histogram(metrics.StencilTileSeconds, nil),
		queueDepth:  reg.Gauge(metrics.PoolQueueDepth, nil),
		tilesTotal:  reg.Counter(metrics.PoolTilesTotal, nil),
		busySeconds: reg.Gauge(metrics.PoolBusySeconds, nil),
	})
}

// NewPool starts a pool with the given worker count (<= 0 resolves via
// ResolveWorkers). Call Close to release the worker goroutines.
func NewPool(workers int) *Pool {
	w := ResolveWorkers(workers)
	p := &Pool{workers: w, tasks: make(chan func(), 4*w)}
	for i := 0; i < w; i++ {
		go func() {
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the worker goroutines once queued tasks drain. ForRange must
// not be called after Close.
func (p *Pool) Close() { close(p.tasks) }

// submit hands a task to an idle pool worker, or spawns a goroutine when
// the queue is full (callers never block on a busy pool, so a ForRange
// issued from inside a pool task cannot deadlock).
func (p *Pool) submit(f func()) {
	if pm := p.pm.Load(); pm != nil {
		pm.queueDepth.Set(float64(len(p.tasks)))
	}
	select {
	case p.tasks <- f:
	default:
		go f()
	}
}

// tileStart returns when a tile began, or the zero time if the pool has no
// registry attached and the tile goes untimed. With tileDone it is how
// ForRange accounts a tile, and how the Apply entry points account the one
// tile of a serial call they run themselves: a closure handed to ForRange
// escapes to the pool workers, an allocation per step that a call resolving
// to one worker would pay for nothing.
func (p *Pool) tileStart() time.Time {
	if p.pm.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

// tileDone records a tile begun at t0 = tileStart().
func (p *Pool) tileDone(t0 time.Time) {
	pm := p.pm.Load()
	if pm == nil || t0.IsZero() {
		return
	}
	d := time.Since(t0).Seconds()
	pm.tileSeconds.Observe(d)
	pm.busySeconds.Add(d)
	pm.tilesTotal.Inc()
}

// ForRange executes fn over [0, n) split into contiguous tiles, with up to
// `workers` concurrent executors including the caller (workers <= 0
// resolves via ResolveWorkers). Tiles are handed out dynamically through an
// atomic cursor, so uneven tiles balance across workers. fn must be safe to
// call concurrently on disjoint ranges; every index is covered exactly
// once. With one worker (or n <= 1) fn runs inline: fn(0, n).
func (p *Pool) ForRange(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	run := func(lo, hi int) {
		t0 := p.tileStart()
		fn(lo, hi)
		p.tileDone(t0)
	}
	w := min(ResolveWorkers(workers), n)
	if w <= 1 {
		run(0, n)
		return
	}
	grain := n / (w * tilesPerWorker)
	if grain < 1 {
		grain = 1
	}
	var cursor atomic.Int64
	loop := func() {
		for {
			lo := int(cursor.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			run(lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 0; i < w-1; i++ {
		p.submit(func() {
			defer wg.Done()
			loop()
		})
	}
	loop()
	wg.Wait()
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the shared process-wide pool, created on first use
// with ResolveWorkers(0) workers. The kernels in this package dispatch
// through it; it is never closed.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}
