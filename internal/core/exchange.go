package core

import (
	"cmp"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/shmem"
)

// BrickExchanger is the topology and span plan shared by every brick
// exchange variant: the decomposition's messages and the neighbor rank in
// each direction. Bind it to storage with NewLayoutExchange,
// NewExchangeView, or NewShiftView to compile an Exchanger; the variants
// differ only in their windows and on-node copies.
type BrickExchanger struct {
	d    *BrickDecomp
	comm *mpi.Comm
	rank map[layout.Set]int // neighbor direction -> rank (-1 at open boundary)
}

// cartOffset converts a direction set to a Cartesian displacement in the
// cart's (k,j,i) axis order.
func cartOffset(s layout.Set) []int {
	return []int{s.Axis(3), s.Axis(2), s.Axis(1)}
}

// NewExchanger resolves neighbor ranks for every direction from a Cartesian
// topology whose dims are ordered (k,j,i) — i fastest, matching storage.
func NewExchanger(d *BrickDecomp, cart *mpi.Cart) *BrickExchanger {
	e := &BrickExchanger{d: d, comm: cart.Comm(), rank: make(map[layout.Set]int, 26)}
	for _, s := range layout.Regions(3) {
		e.rank[s] = cart.Neighbor(cartOffset(s))
	}
	return e
}

// NeighborRank returns the rank in direction s, or -1 at an open boundary.
func (e *BrickExchanger) NeighborRank(s layout.Set) int { return e.rank[s] }

// NewLayoutExchange compiles the pack-free Basic/Layout exchange against
// bs: every contiguous brick span that crosses a rank boundary is one
// window, sent straight out of storage and received straight into ghost
// storage, with no on-node movement (98 and 42 messages per rank in 3D —
// the plan size depends only on the decomposition's brick order).
func NewLayoutExchange(e *BrickExchanger, bs *BrickStorage) *Engine {
	return newEngine(nil, e.comm, "spans", e.spanWindows(e.d.recvMsgs, bs),
		e.spanWindows(e.d.sendMsgs, bs), bs)
}

// spanWindows makes one storage window per message that has a neighbor.
func (e *BrickExchanger) spanWindows(msgs []MsgSpec, bs *BrickStorage) []Window {
	chunk := bs.Chunk()
	spans := make([]Span, len(msgs))
	ws := make([]Window, 0, len(msgs))
	for i, m := range msgs {
		if peer := e.rank[m.Dir]; peer >= 0 {
			spans[i] = m.Span
			ws = append(ws, Window{Peer: peer, Tag: m.Tag, spans: spans[i : i+1 : i+1],
				Buf: bs.Data[m.Span.Start*chunk : m.Span.PaddedEnd()*chunk]})
		}
	}
	return ws
}

// ExchangeView is the MemMap exchange (Section 4): one message per neighbor.
// Outgoing data for each neighbor is presented as a single contiguous
// virtual-memory view over the (scattered) surface runs; incoming data lands
// directly in the contiguous ghost group. When real memory mapping is
// available the views alias storage with zero copies; otherwise they degrade
// to copy windows gathered before each send and Degraded() reports true.
type ExchangeView struct {
	*Engine
	views []*shmem.View // views[i] backs send window i (nil: a storage span or a heap copy)
}

// Degradation reasons recorded in ExchangePlan.Degraded and used as the
// reason label of the exchange_degraded_total metric.
const (
	// DegradeHeapStorage: storage was never arena-backed, so views were
	// copy windows from the start.
	DegradeHeapStorage = "heap-storage"
	// DegradeUnmappedArena: the arena exists but could not map (shm setup
	// failed at allocation, or mapping was forced off by injection).
	DegradeUnmappedArena = "unmapped-arena"
	// DegradeMapFailed: the arena is mapped but building an aliasing view
	// over the surface runs failed; that neighbor fell back to a copy
	// window.
	DegradeMapFailed = "map-failed"
	// DegradeForced: a mid-run Degrade call (fault injection, or an
	// operator tearing down mappings) rebuilt the mapped views as copies.
	DegradeForced = "forced"
)

// NewExchangeView builds one send window per neighbor over its surface
// runs and compiles the exchange plan: receives in ghost-group order, sends
// in view order — the same program order on every rank. Storage should come
// from MmapAllocate for zero-copy views; heap storage yields a functional
// but degraded (copying) view.
func NewExchangeView(e *BrickExchanger, bs *BrickStorage) (*ExchangeView, error) {
	ev := &ExchangeView{}
	chunk := bs.Chunk()
	// Group this rank's send runs by destination, in tag order (tag order
	// is grouping order per destination).
	byDst := map[layout.Set][]Span{}
	for _, m := range e.d.sendMsgs {
		byDst[m.Dir] = append(byDst[m.Dir], m.Span)
	}
	reason := ""
	var recvs, sends []Window
	for _, dir := range e.d.order {
		if peer := e.rank[dir]; len(byDst[dir]) > 0 && peer >= 0 {
			w, view, why := spanWindow(bs, peer, makeTag(dir, 0), byDst[dir])
			reason = cmp.Or(reason, why)
			sends = append(sends, w)
			ev.views = append(ev.views, view)
		}
	}
	for _, u := range e.d.order {
		grp, peer := e.d.ghostGroup[u], e.rank[u]
		if grp.NBricks == 0 || peer < 0 {
			continue
		}
		recvs = append(recvs, Window{Peer: peer, Tag: makeTag(u.Opposite(), 0),
			Buf: bs.Data[grp.Start*chunk : grp.PaddedEnd()*chunk]})
	}
	ev.Engine = newEngine(nil, e.comm, "memmap", recvs, sends, bs)
	if reason != "" {
		ev.degrade(reason)
	}
	return ev, nil
}

// spanWindow makes the window over a list of storage spans: a slice of
// storage when they are one span, else a view mapped over them, or — on
// heap storage, or when mapping fails — a heap copy. why names the reason a
// window is a copy (one of the Degrade* constants), or is empty.
func spanWindow(bs *BrickStorage, peer, tag int, spans []Span) (w Window, view *shmem.View, why string) {
	chunk := bs.Chunk()
	w = Window{Peer: peer, Tag: tag, spans: spans}
	if len(spans) == 1 {
		w.Buf = bs.Data[spans[0].Start*chunk : spans[0].PaddedEnd()*chunk]
		return w, nil, ""
	}
	total := 0
	segs := make([]shmem.Segment, len(spans))
	for i, sp := range spans {
		segs[i] = shmem.Segment{Offset: 8 * sp.Start * chunk, Len: 8 * sp.Padded * chunk}
		total += sp.Padded * chunk
	}
	if bs.arena == nil {
		w.Buf, w.copied = make([]float64, total), true
		return w, nil, DegradeHeapStorage
	}
	view, err := bs.arena.MapVector(segs)
	switch {
	case err != nil:
		// Mapping failed (injected, real, or spans off page boundaries):
		// degrade this window to a copy instead of failing the run —
		// identical bytes move, with extra on-node copies.
		w.Buf, w.copied = make([]float64, total), true
		return w, nil, DegradeMapFailed
	case !view.Mapped():
		w.Buf, w.copied = view.Float64s(), true
		return w, view, DegradeUnmappedArena
	}
	w.Buf = view.Float64s()
	return w, view, ""
}

// Degraded reports whether any send view is copy-based rather than aliasing
// (platform without mmap support, unaligned chunks, a map failure, or a
// mid-run Degrade); Plan().Degraded names the first reason.
func (ev *ExchangeView) Degraded() bool { return ev.Plan().Degraded != "" }

// degrade records the first reason and gathers the copy windows as the
// fill step, so they are current before each send.
func (ev *ExchangeView) degrade(reason string) {
	ev.markDegraded(reason)
	ev.fill = ev.gather
}

// Degrade rebuilds every mapped send view as a copy-based window, mid-run:
// the aliasing views are unmapped, fresh heap windows take their place,
// and persistent send endpoints are rebound to the new windows — the peer
// is untouched, because the wire format (one flat payload per neighbor
// with the same tag and length) is identical either way. Subsequent Starts
// gather surface runs into the windows before posting, so results are
// bit-identical to the mapped exchange at the cost of packing copies.
//
// Call it between Complete and the next Start — never with an exchange in
// flight (Rebind on an active request panics). It is idempotent; reason is
// recorded on the plan summary on first use.
func (ev *ExchangeView) Degrade(reason string) error {
	var first error
	for i, v := range ev.views {
		if v == nil || !v.Mapped() {
			continue // storage span, heap copy, or already copy-based
		}
		buf := make([]float64, len(ev.sendWins[i].Buf))
		if err := v.Close(); err != nil && first == nil {
			first = err
		}
		ev.views[i] = nil
		ev.rebindCopy(i, buf)
	}
	ev.degrade(reason)
	return first
}

// Close frees the persistent endpoints, then unmaps the views.
func (ev *ExchangeView) Close() error {
	// Free the endpoints BEFORE unmapping the views: the mapped views back
	// the persistent buffers, and Free both retracts undelivered Starts and
	// serializes (on the channel lock) against a peer's delivery copying
	// from them. Unmapping first would let an abort-unwinding rank pull the
	// pages out from under a surviving peer mid-copy — a fatal SIGSEGV.
	ev.Engine.Close()
	var first error
	for _, v := range ev.views {
		if v != nil {
			if err := v.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	ev.views = nil
	return first
}
