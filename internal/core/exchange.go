package core

import (
	"time"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/shmem"
)

// BrickExchanger performs the pack-free ghost-zone exchange for one rank:
// every message is a contiguous run of brick chunks sent straight out of
// storage and received straight into ghost storage, with zero packing
// copies. The message plan comes from the decomposition's layout (42
// messages per rank for the optimal 3D layout, 98 for Basic).
//
// BrickExchanger is the topology/plan half shared by every brick exchange
// variant; bind it to storage with NewLayoutExchange, NewExchangeView, or
// NewShiftView to get an Exchanger driving the Plan/Start/Complete
// lifecycle. Exchange and its PostReceives/PostSends/Wait parts are the
// unbound-storage exchange: they move any storage of this decomposition
// through the matching engine, which is the only path for storage no
// Exchanger was compiled against.
type BrickExchanger struct {
	d    *BrickDecomp
	comm *mpi.Comm
	rank map[layout.Set]int // neighbor direction -> rank (-1 at open boundary)
	reqs []*mpi.Request
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

// Decomp returns the decomposition this exchanger serves.
func (e *BrickExchanger) Decomp() *BrickDecomp { return e.d }

// NeighborRank returns the rank in direction s, or -1 at an open boundary.
func (e *BrickExchanger) NeighborRank(s layout.Set) int { return e.rank[s] }

// Exchange runs one ghost-zone exchange on the given storage: posts all
// receives, then all sends, then waits for completion. Returns the number
// of messages this rank sent.
func (e *BrickExchanger) Exchange(bs *BrickStorage) int {
	e.PostReceives(bs)
	n := e.PostSends(bs)
	e.Wait()
	return n
}

// PostReceives posts the ghost-region receives. Callers composing their own
// overlap schemes may use PostReceives/PostSends/Wait directly.
func (e *BrickExchanger) PostReceives(bs *BrickStorage) {
	chunk := bs.Chunk()
	for _, m := range e.d.recvMsgs {
		src := e.rank[m.Dir]
		if src < 0 {
			continue
		}
		buf := bs.Data[m.Span.Start*chunk : m.Span.PaddedEnd()*chunk]
		e.reqs = append(e.reqs, e.comm.Irecv(src, m.Tag, buf))
	}
}

// PostSends posts the surface-region sends and returns how many were posted.
func (e *BrickExchanger) PostSends(bs *BrickStorage) int {
	chunk := bs.Chunk()
	n := 0
	for _, m := range e.d.sendMsgs {
		dst := e.rank[m.Dir]
		if dst < 0 {
			continue
		}
		buf := bs.Data[m.Span.Start*chunk : m.Span.PaddedEnd()*chunk]
		e.reqs = append(e.reqs, e.comm.Isend(dst, m.Tag, buf))
		n++
	}
	return n
}

// Wait completes all outstanding requests.
func (e *BrickExchanger) Wait() {
	mpi.Waitall(e.reqs)
	e.reqs = e.reqs[:0]
}

// ExchangeView is the MemMap exchange (Section 4): one message per neighbor.
// Outgoing data for each neighbor is presented as a single contiguous
// virtual-memory view over the (scattered) surface runs; incoming data lands
// directly in the contiguous ghost group. When real memory mapping is
// available the views alias storage with zero copies; otherwise they degrade
// to gather-before-send copies and Degraded() reports true.
//
// The plan — at most 26 messages, fixed views, fixed ghost windows — is
// compiled once at construction; each Start/Complete cycle reuses
// pre-matched requests and allocates nothing.
type ExchangeView struct {
	PlanBase
	e        *BrickExchanger
	bs       *BrickStorage
	sends    []sendView
	degraded bool
	precvs   []*mpi.Request
	psends   []*mpi.Request
	pall     []*mpi.Request
	ps       *partState // non-nil when compiled with WithPartitions
}

var (
	_ Exchanger            = (*ExchangeView)(nil)
	_ PartitionedExchanger = (*ExchangeView)(nil)
)

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

type sendView struct {
	dir   layout.Set
	tag   int
	view  *shmem.View  // nil when the run collapses to one span or the window is a copy
	runs  []MsgSpec    // the surface runs behind the window (len > 1 windows)
	spans []Span       // every run's span in window order (partition compile)
	flat  []float64    // the contiguous window to send
	req   *mpi.Request // persistent send endpoint (nil at an open boundary)
}

// aliased reports whether the window aliases storage (a single-run slice
// of storage, or a mapped view): the window needs no refresh copies before
// a send partition fires. Copy windows — heap storage, map failures,
// unmapped arenas, mid-run Degrade — return false.
func (sv *sendView) aliased() bool {
	if sv.view != nil {
		return sv.view.Mapped()
	}
	return sv.runs == nil
}

// NewExchangeView precomputes per-neighbor send views and compiles the
// exchange plan. Storage should come from MmapAllocate for zero-copy
// views; heap storage yields a functional but degraded (copying) view.
func NewExchangeView(e *BrickExchanger, bs *BrickStorage, opts ...PlanOption) (*ExchangeView, error) {
	ev := &ExchangeView{e: e, bs: bs}
	chunk := bs.Chunk()
	// Group this rank's send runs by destination, in tag order (tag order
	// is grouping order per destination).
	byDst := map[layout.Set][]MsgSpec{}
	for _, m := range e.d.sendMsgs {
		byDst[m.Dir] = append(byDst[m.Dir], m)
	}
	degradeReason := ""
	degrade := func(reason string) {
		ev.degraded = true
		if degradeReason == "" {
			degradeReason = reason
		}
	}
	for _, dir := range e.d.order {
		runs := byDst[dir]
		if len(runs) == 0 {
			continue
		}
		sv := sendView{dir: dir, tag: makeTag(dir, 0)}
		sv.spans = make([]Span, len(runs))
		for i, r := range runs {
			sv.spans[i] = r.Span
		}
		switch {
		case len(runs) == 1:
			// Already contiguous; a view would be redundant.
			sp := runs[0].Span
			sv.flat = bs.Data[sp.Start*chunk : sp.PaddedEnd()*chunk]
		case bs.arena == nil:
			// Heap storage: copy-based fallback window.
			sv.runs = runs
			sv.flat = make([]float64, runsLen(runs, chunk))
			degrade(DegradeHeapStorage)
		default:
			sv.runs = runs
			view, err := mapRuns(bs, runs)
			switch {
			case err != nil:
				// Mapping the surface runs failed (injected or real):
				// degrade this neighbor to a copy window instead of
				// failing the run — identical bytes move, with extra
				// on-node copies.
				sv.flat = make([]float64, runsLen(runs, chunk))
				degrade(DegradeMapFailed)
			case !view.Mapped():
				sv.view = view
				sv.flat = view.Float64s()
				degrade(DegradeUnmappedArena)
			default:
				sv.view = view
				sv.flat = view.Float64s()
			}
		}
		ev.sends = append(ev.sends, sv)
	}
	// Compile the plan: receives in ghost-group order, sends in view order —
	// the same program order on every rank, so persistent endpoints pair
	// deterministically.
	plan := ExchangePlan{Variant: "memmap"}
	var tileOf []int
	if tiles := resolveTiles(opts); len(tiles) > 0 {
		tileOf = tileOwnerTable(tiles, e.d.NumBricks())
		ev.ps = newPartState(len(tiles), bs.Data)
	}
	for _, u := range e.d.order {
		src := e.rank[u]
		if src < 0 {
			continue
		}
		grp := e.d.ghostGroup[u]
		if grp.NBricks == 0 {
			continue
		}
		buf := bs.Data[grp.Start*chunk : grp.PaddedEnd()*chunk]
		tag := makeTag(u.Opposite(), 0)
		plan.Recvs = append(plan.Recvs, PlanMsg{Peer: src, Tag: tag, Bytes: int64(8 * len(buf))})
		ev.precvs = append(ev.precvs, e.comm.RecvInit(src, tag, buf))
	}
	for i := range ev.sends {
		sv := &ev.sends[i]
		dst := e.rank[sv.dir]
		if dst < 0 {
			continue
		}
		plan.Sends = append(plan.Sends, PlanMsg{Peer: dst, Tag: sv.tag, Bytes: int64(8 * len(sv.flat))})
		if ev.ps != nil {
			mp := compileWindowParts(sv.spans, chunk, tileOf)
			sv.req = e.comm.PsendInit(dst, sv.tag, sv.flat, mp.bounds)
			ev.ps.addMsg(sv.req, sv, mp)
			plan.Partitions = append(plan.Partitions, len(mp.owners))
		} else {
			sv.req = e.comm.SendInit(dst, sv.tag, sv.flat)
		}
		ev.psends = append(ev.psends, sv.req)
	}
	ev.pall = make([]*mpi.Request, 0, len(ev.precvs)+len(ev.psends))
	ev.pall = append(append(ev.pall, ev.precvs...), ev.psends...)
	ev.SetPlan(plan)
	if ev.degraded {
		ev.MarkDegraded(degradeReason)
	}
	return ev, nil
}

// runsLen totals the window elements of a run list.
func runsLen(runs []MsgSpec, chunk int) int {
	total := 0
	for _, r := range runs {
		total += r.Span.Padded * chunk
	}
	return total
}

// mapRuns builds a view over the byte ranges of the given brick spans.
func mapRuns(bs *BrickStorage, runs []MsgSpec) (*shmem.View, error) {
	arena := bs.arena
	chunkBytes := 8 * bs.Chunk()
	segs := make([]shmem.Segment, len(runs))
	for i, r := range runs {
		segs[i] = shmem.Segment{Offset: r.Span.Start * chunkBytes, Len: r.Span.Padded * chunkBytes}
	}
	return arena.MapVector(segs)
}

// Degraded reports whether any send view is copy-based rather than aliasing
// (platform without mmap support, unaligned chunks, a map failure, or a
// mid-run Degrade).
func (ev *ExchangeView) Degraded() bool { return ev.degraded }

// DegradedReason returns why the exchanger degraded (one of the Degrade*
// constants), or empty at full service.
func (ev *ExchangeView) DegradedReason() string { return ev.Plan().Degraded }

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
	for i := range ev.sends {
		sv := &ev.sends[i]
		if sv.view == nil || !sv.view.Mapped() {
			continue // single-run storage alias or already copy-based
		}
		flat := make([]float64, len(sv.flat))
		if err := sv.view.Close(); err != nil && first == nil {
			first = err
		}
		sv.view = nil
		sv.flat = flat
		if sv.req != nil {
			sv.req.Rebind(flat)
		}
	}
	ev.degraded = true
	ev.MarkDegraded(reason)
	return first
}

// NumMessages returns the messages per exchange this rank sends: at most one
// per neighbor (26 in 3D), the paper's MemMap minimum.
func (ev *ExchangeView) NumMessages() int { return len(ev.sends) }

// Exchange runs one MemMap ghost-zone exchange: one receive per neighbor
// into the contiguous ghost group, one send per neighbor from the view.
func (ev *ExchangeView) Exchange() int {
	n := ev.Start()
	ev.Complete()
	return n
}

// gatherSends refreshes the copy-based (degraded) send windows from
// storage. Aliasing views need nothing: they ARE storage.
func (ev *ExchangeView) gatherSends() {
	chunk := ev.bs.Chunk()
	for _, sv := range ev.sends {
		if ev.e.rank[sv.dir] < 0 {
			continue
		}
		switch {
		case sv.view != nil && sv.view.Mapped():
			// Aliasing view: it IS storage, nothing to refresh.
		case sv.view != nil:
			sv.view.Gather() // degraded mode: packing copy
		case sv.runs != nil:
			off := 0
			for _, r := range sv.runs {
				n := r.Span.Padded * chunk
				copy(sv.flat[off:off+n], ev.bs.Data[r.Span.Start*chunk:r.Span.PaddedEnd()*chunk])
				off += n
			}
		}
	}
}

// Start posts one MemMap exchange without waiting, returning the number of
// sends posted. Callers composing comm/compute overlap compute the
// interior between Start and Complete; only ghost bricks are written and
// only surface bricks are read while the exchange is in flight, so
// interior computation is safe to run concurrently.
func (ev *ExchangeView) Start() int {
	if ev.degraded && ev.ps == nil {
		// Partitioned plans skip the bulk gather: each partition's window
		// segment is refreshed right before its Pready fires instead.
		t0 := time.Now()
		ev.gatherSends()
		ev.AddPack(time.Since(t0))
	}
	t0 := time.Now()
	mpi.Startall(ev.precvs)
	mpi.Startall(ev.psends)
	if ev.ps != nil {
		ev.ps.arm()
		ev.ps.readyAll()
	}
	ev.AddCall(time.Since(t0))
	ev.RecordStart()
	return len(ev.psends)
}

// StartRecvs arms this step's receives; ghost groups may be written by
// in-flight deliveries from here until Complete returns.
func (ev *ExchangeView) StartRecvs() {
	t0 := time.Now()
	mpi.Startall(ev.precvs)
	ev.AddCall(time.Since(t0))
}

// StartSends arms the next exchange's sends with every partition unready.
// Copy-based (degraded) windows are NOT gathered here — each partition's
// segment is refreshed on its owning tile's ReadyTile, so the pack copy
// overlaps sibling tiles' compute. Accounts one plan start.
func (ev *ExchangeView) StartSends() int {
	t0 := time.Now()
	mpi.Startall(ev.psends)
	if ev.ps != nil {
		ev.ps.arm()
	}
	ev.AddCall(time.Since(t0))
	ev.RecordStart()
	return len(ev.psends)
}

// ReadyTile refreshes and fires every armed partition owned by surface
// tile t. Called from pool worker goroutines; safe for distinct tiles
// concurrently.
func (ev *ExchangeView) ReadyTile(t int) {
	if ev.ps != nil {
		ev.ps.readyTile(t)
	}
}

// ReadyAll marks every armed partition ready (the prologue path).
func (ev *ExchangeView) ReadyAll() {
	if ev.ps != nil {
		ev.ps.readyAll()
	}
}

// Partitions returns the total partition count across sends (zero when the
// plan was compiled without WithPartitions).
func (ev *ExchangeView) Partitions() int {
	if ev.ps == nil {
		return 0
	}
	return ev.ps.total
}

// SetPartitionMetrics attaches the partition instrument series (no-op on an
// unpartitioned plan or nil registry).
func (ev *ExchangeView) SetPartitionMetrics(reg *metrics.Registry) { ev.ps.setMetrics(reg) }

// Complete blocks until the exchange posted by Start has finished.
func (ev *ExchangeView) Complete() {
	t0 := time.Now()
	mpi.Waitall(ev.pall)
	ev.AddWait(time.Since(t0))
	if ev.ps != nil {
		if d := ev.ps.drainPack(); d > 0 {
			ev.AddPack(d)
		}
	}
}

// Close releases the views and persistent endpoints.
func (ev *ExchangeView) Close() error {
	// Free the endpoints BEFORE unmapping the views: the mapped views back
	// the persistent buffers, and Free both retracts undelivered Starts and
	// serializes (on the channel lock) against a peer's delivery copying
	// from them. Unmapping first would let an abort-unwinding rank pull the
	// pages out from under a surviving peer mid-copy — a fatal SIGSEGV.
	for _, r := range ev.pall {
		r.Free()
	}
	var first error
	for _, sv := range ev.sends {
		if sv.view != nil {
			if err := sv.view.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	ev.sends = nil
	ev.precvs, ev.psends, ev.pall = nil, nil, nil
	return first
}
