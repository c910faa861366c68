package core

import (
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// This file is the partition compiler: it splits each compiled persistent
// send window into MPI 4.x-style partitions aligned with the worker pool's
// surface tiles, so a tile's completion callback fires Pready for exactly
// the spans that tile produced. Partition boundaries fall where the owning
// tile of consecutive window bricks changes; unowned bricks (fused-span
// padding, which carries no live data) merge into the surrounding
// partition, with leading unowned bricks adopting the first real owner.
// Windows made entirely of unowned bricks become "immediate" partitions,
// fired the moment the send is armed — their payload is padding either
// way, so nothing waits on compute.

// copySeg is one storage→window copy covering part of one partition of a
// degraded (copy-window) send: n elements from storage offset stor to
// window offset win. Aliased windows need no segs — they ARE storage.
type copySeg struct {
	stor, win, n int
}

// partFire is the refresh of one partition of a multi-span send window:
// its segs are copied from storage into the window's current buffer before
// the partition fires, when that buffer is a copy. A one-span window is a
// slice of storage and has none.
type partFire struct {
	win  *Window
	segs []copySeg
}

// tileFires is every partition one completing tile fires: the request and
// partition columns of its one mpi.Preadyall, built at compile time so
// firing a tile allocates nothing, and the refreshes that go first.
type tileFires struct {
	reqs    []*mpi.Request
	parts   []int
	refresh []partFire
}

func (g *tileFires) add(req *mpi.Request, part int, w *Window, segs []copySeg) {
	g.reqs = append(g.reqs, req)
	g.parts = append(g.parts, part)
	if len(w.spans) > 1 {
		g.refresh = append(g.refresh, partFire{win: w, segs: segs})
	}
}

// msgPartition is the compiled partitioning of one send window: P+1 window
// element offsets, the owning tile per partition (-1 when owner-less), and
// the per-partition storage→window copies for degraded windows.
type msgPartition struct {
	bounds []int
	owners []int
	segs   [][]copySeg
}

// tileOwnerTable inverts a tile list into a storage-brick → tile lookup
// (-1 for bricks outside every tile).
func tileOwnerTable(tiles [][2]int, nBricks int) []int {
	t := make([]int, nBricks)
	for i := range t {
		t[i] = -1
	}
	for ti, tl := range tiles {
		for b := tl[0]; b < tl[1] && b < nBricks; b++ {
			if b >= 0 {
				t[b] = ti
			}
		}
	}
	return t
}

// compileWindowParts splits a send window — the concatenation of the given
// storage-brick runs, chunk elements per brick — into partitions at tile-
// ownership boundaries, and compiles the per-partition copy segments
// (each partition ∩ run is one contiguous seg, since storage and window
// offsets advance together inside a run).
func compileWindowParts(runs []Span, chunk int, tileOf []int) msgPartition {
	var mp msgPartition
	cur := -2 // owner of the open partition; -2 = none open yet
	off := 0
	for _, sp := range runs {
		for b := sp.Start; b < sp.PaddedEnd(); b++ {
			o := -1
			if b >= 0 && b < len(tileOf) {
				o = tileOf[b]
			}
			switch {
			case cur == -2:
				mp.bounds = append(mp.bounds, 0)
				cur = o
			case o >= 0 && cur == -1:
				cur = o // leading unowned bricks adopt the first real owner
			case o >= 0 && o != cur:
				mp.bounds = append(mp.bounds, off)
				mp.owners = append(mp.owners, cur)
				cur = o
			}
			off += chunk
		}
	}
	if cur == -2 {
		return msgPartition{} // empty window
	}
	mp.bounds = append(mp.bounds, off)
	mp.owners = append(mp.owners, cur)
	// Second pass: per-partition copy segments, one per overlapping run.
	mp.segs = make([][]copySeg, len(mp.owners))
	wlo := 0
	for _, sp := range runs {
		n := sp.Padded * chunk
		whi := wlo + n
		for i := 0; i < len(mp.owners); i++ {
			lo := max(mp.bounds[i], wlo)
			hi := min(mp.bounds[i+1], whi)
			if lo < hi {
				mp.segs[i] = append(mp.segs[i], copySeg{
					stor: sp.Start*chunk + (lo - wlo), win: lo, n: hi - lo,
				})
			}
		}
		wlo = whi
	}
	return mp
}

// partState is the runtime state a partitioned exchanger shares between
// the driving goroutine (arm at StartSends, drain at Complete) and the
// pool-worker ReadyTile callbacks. The fires table is immutable after
// construction; armedAt is written before the surface pass is submitted to
// the pool (happens-before via task submission), and the pack timer is an
// atomic drained by Complete — the engine's accumulators have one caller
// and must not be touched from workers.
type partState struct {
	tiles     []tileFires // partitions to fire per completing tile
	immediate tileFires   // owner-less partitions, fired when armed
	total     int         // total partitions across all sends
	data      []float64   // backing storage, source of copy-window segs
	armedAt   time.Time
	packNanos atomic.Int64
	readyCtr  *metrics.Counter
	lagHist   *metrics.Histogram
}

func newPartState(nTiles int, data []float64) *partState {
	return &partState{tiles: make([]tileFires, nTiles), data: data}
}

// addMsg indexes one compiled message's partitions by owning tile.
func (s *partState) addMsg(req *mpi.Request, w *Window, mp msgPartition) {
	for i, o := range mp.owners {
		g := &s.immediate
		if o >= 0 {
			g = &s.tiles[o]
		}
		g.add(req, i, w, mp.segs[i])
		s.total++
	}
}

// setMetrics attaches the partition instrument series. Safe on a nil state
// (unpartitioned exchanger) — it is a no-op then.
func (s *partState) setMetrics(reg *metrics.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.Describe(metrics.ExchangePartitionsReadyTotal,
		"Send partitions marked ready (Pready fired by a completed surface tile).")
	reg.Describe(metrics.PartitionReadyLagSeconds,
		"Delay from arming a partitioned send to each partition's Pready.")
	s.readyCtr = reg.Counter(metrics.ExchangePartitionsReadyTotal, nil)
	s.lagHist = reg.Histogram(metrics.PartitionReadyLagSeconds, nil)
}

// arm stamps the arming time and fires the owner-less partitions; call
// right after Startall on the sends.
func (s *partState) arm() {
	s.armedAt = time.Now()
	s.fire(&s.immediate)
}

// fire marks a tile's partitions ready with one mpi.Preadyall — on tcp one
// write per destination — refreshing each copy window segment first when
// its window does not alias storage. Runs on pool workers: allocation-
// free, touching only the atomic pack timer and concurrency-safe metrics.
func (s *partState) fire(g *tileFires) {
	if len(g.reqs) == 0 {
		return
	}
	for _, f := range g.refresh {
		if f.win.copied {
			t0 := time.Now()
			buf := f.win.Buf
			for _, sg := range f.segs {
				copy(buf[sg.win:sg.win+sg.n], s.data[sg.stor:sg.stor+sg.n])
			}
			s.packNanos.Add(time.Since(t0).Nanoseconds())
		}
	}
	mpi.Preadyall(g.reqs, g.parts)
	if s.readyCtr != nil {
		s.readyCtr.Add(int64(len(g.parts)))
		lag := time.Since(s.armedAt).Seconds()
		for range g.parts {
			s.lagHist.Observe(lag)
		}
	}
}

// readyTile fires every partition owned by tile t. Safe to call
// concurrently for distinct tiles.
func (s *partState) readyTile(t int) { s.fire(&s.tiles[t]) }

// readyAll fires every owned partition, tile by tile (the prologue, and
// the combined Start path for callers without tile callbacks).
func (s *partState) readyAll() {
	for t := range s.tiles {
		s.readyTile(t)
	}
}

// drainPack converts the accumulated worker-side pack time into a
// duration for the engine's Pack accumulator (call from Complete).
func (s *partState) drainPack() time.Duration {
	return time.Duration(s.packNanos.Swap(0))
}
