package stencil

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/bricklab/brick/internal/flight"
)

// TestForTilesFlightEventOrdering: with one worker the ring shows each
// tile's start before its done, and every done lands before the tile's
// onDone callback observes it — the ordering the partitioned blame analysis
// relies on (tile-start → tile-done → pready).
func TestForTilesFlightEventOrdering(t *testing.T) {
	fl := flight.New(1, 64).Rank(0)
	tiles := [][2]int{{0, 2}, {2, 5}, {5, 6}}
	doneAt := map[int]uint64{} // ring total when tile t's onDone fired
	NewPool(1).ForTiles(1, tiles, func(lo, hi int) {}, func(tile int) {
		doneAt[tile] = fl.Total()
	}, fl)
	evs := fl.Events()
	if len(evs) != 2*len(tiles) {
		t.Fatalf("%d events, want %d (start+done per tile)", len(evs), 2*len(tiles))
	}
	for i := 0; i < len(tiles); i++ {
		start, done := evs[2*i], evs[2*i+1]
		if start.Kind != flight.KindTileStart || int(start.Part) != i {
			t.Fatalf("event %d = %+v, want tile-start tile=%d", 2*i, start, i)
		}
		if done.Kind != flight.KindTileDone || int(done.Part) != i {
			t.Fatalf("event %d = %+v, want tile-done tile=%d", 2*i+1, done, i)
		}
		if doneAt[i] < uint64(2*i+2) {
			t.Fatalf("tile %d onDone fired before its tile-done was recorded", i)
		}
	}
}

// TestForTilesFlightConcurrent: under many workers (and -race) every tile
// still records exactly one start and one done, and a nil ring stays a
// no-op.
func TestForTilesFlightConcurrent(t *testing.T) {
	fl := flight.New(1, 1024).Rank(0)
	tiles := make([][2]int, 32)
	for i := range tiles {
		tiles[i] = [2]int{i, i + 1}
	}
	var mu sync.Mutex
	covered := map[int]bool{}
	p := NewPool(4)
	defer p.Close()
	p.ForTiles(4, tiles, func(lo, hi int) {
		mu.Lock()
		covered[lo] = true
		mu.Unlock()
	}, nil, fl)
	if len(covered) != len(tiles) {
		t.Fatalf("covered %d tiles, want %d", len(covered), len(tiles))
	}
	starts := map[int32]int{}
	dones := map[int32]int{}
	for _, e := range fl.Events() {
		switch e.Kind {
		case flight.KindTileStart:
			starts[e.Part]++
		case flight.KindTileDone:
			dones[e.Part]++
		}
	}
	for i := range tiles {
		if starts[int32(i)] != 1 || dones[int32(i)] != 1 {
			t.Fatalf("tile %d recorded %d starts / %d dones, want 1/1",
				i, starts[int32(i)], dones[int32(i)])
		}
	}
	// The nil-ring path (recorder off) must run identically.
	var ran atomic.Int32
	p.ForTiles(2, tiles, func(lo, hi int) {}, func(tile int) { ran.Add(1) }, nil)
	if int(ran.Load()) != len(tiles) {
		t.Fatalf("nil-ring run fired %d onDone callbacks, want %d", ran.Load(), len(tiles))
	}
}
