package core

import (
	"time"

	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// LayoutExchange binds a BrickExchanger's span plan to one storage and
// compiles it into an Exchanger: every contiguous brick run that crosses a
// rank boundary becomes one pre-matched persistent request over a fixed
// storage window, built once here and reused by every Start/Complete cycle
// with zero per-step allocation. This is the Plan/Start/Complete form of
// the Basic and Layout exchanges (98 and 42 messages per rank in 3D
// respectively — the plan size depends only on the decomposition's brick
// order).
type LayoutExchange struct {
	PlanBase
	precvs []*mpi.Request
	psends []*mpi.Request
	pall   []*mpi.Request // precvs ++ psends, for one Waitall
	ps     *partState     // non-nil when compiled with WithPartitions
}

var (
	_ Exchanger            = (*LayoutExchange)(nil)
	_ PartitionedExchanger = (*LayoutExchange)(nil)
)

// NewLayoutExchange compiles the exchanger's message plan against bs.
func NewLayoutExchange(e *BrickExchanger, bs *BrickStorage, opts ...PlanOption) *LayoutExchange {
	lx := &LayoutExchange{}
	chunk := bs.Chunk()
	plan := ExchangePlan{Variant: "spans"}
	var tileOf []int
	if tiles := resolveTiles(opts); len(tiles) > 0 {
		tileOf = tileOwnerTable(tiles, e.d.NumBricks())
		lx.ps = newPartState(len(tiles), bs.Data)
	}
	for _, m := range e.d.recvMsgs {
		src := e.rank[m.Dir]
		if src < 0 {
			continue
		}
		buf := bs.Data[m.Span.Start*chunk : m.Span.PaddedEnd()*chunk]
		plan.Recvs = append(plan.Recvs, PlanMsg{Peer: src, Tag: m.Tag, Bytes: int64(8 * len(buf))})
		lx.precvs = append(lx.precvs, e.comm.RecvInit(src, m.Tag, buf))
	}
	for _, m := range e.d.sendMsgs {
		dst := e.rank[m.Dir]
		if dst < 0 {
			continue
		}
		buf := bs.Data[m.Span.Start*chunk : m.Span.PaddedEnd()*chunk]
		plan.Sends = append(plan.Sends, PlanMsg{Peer: dst, Tag: m.Tag, Bytes: int64(8 * len(buf))})
		if lx.ps != nil {
			mp := compileWindowParts([]Span{m.Span}, chunk, tileOf)
			req := e.comm.PsendInit(dst, m.Tag, buf, mp.bounds)
			lx.psends = append(lx.psends, req)
			lx.ps.addMsg(req, nil, mp)
			plan.Partitions = append(plan.Partitions, len(mp.owners))
		} else {
			lx.psends = append(lx.psends, e.comm.SendInit(dst, m.Tag, buf))
		}
	}
	lx.pall = make([]*mpi.Request, 0, len(lx.precvs)+len(lx.psends))
	lx.pall = append(append(lx.pall, lx.precvs...), lx.psends...)
	lx.SetPlan(plan)
	return lx
}

// Start posts one exchange (receives first, then sends) and returns the
// number of sends posted. The storage windows are live in flight: callers
// overlapping computation must touch neither surface nor ghost bricks
// until Complete returns.
func (lx *LayoutExchange) Start() int {
	t0 := time.Now()
	mpi.Startall(lx.precvs)
	mpi.Startall(lx.psends)
	if lx.ps != nil {
		// Combined Start has no tile callbacks: every partition is ready
		// the moment the sends are armed, which reproduces the
		// unpartitioned wire behavior bit-for-bit.
		lx.ps.arm()
		lx.ps.readyAll()
	}
	lx.AddCall(time.Since(t0))
	lx.RecordStart()
	return len(lx.psends)
}

// StartRecvs arms this step's receives: ghost bricks may be written by
// in-flight deliveries from here until Complete returns.
func (lx *LayoutExchange) StartRecvs() {
	t0 := time.Now()
	mpi.Startall(lx.precvs)
	lx.AddCall(time.Since(t0))
}

// StartSends arms the next exchange's sends with every partition unready;
// the surface pass then releases them tile by tile through ReadyTile.
// Accounts one plan start (the pipelined schedule calls StartRecvs and
// StartSends once per step, like the combined Start).
func (lx *LayoutExchange) StartSends() int {
	t0 := time.Now()
	mpi.Startall(lx.psends)
	if lx.ps != nil {
		lx.ps.arm()
	}
	lx.AddCall(time.Since(t0))
	lx.RecordStart()
	return len(lx.psends)
}

// ReadyTile fires Pready for every armed partition owned by surface tile t.
// Called from pool worker goroutines; safe for distinct tiles concurrently.
func (lx *LayoutExchange) ReadyTile(t int) {
	if lx.ps != nil {
		lx.ps.readyTile(t)
	}
}

// ReadyAll marks every armed partition ready (the prologue path).
func (lx *LayoutExchange) ReadyAll() {
	if lx.ps != nil {
		lx.ps.readyAll()
	}
}

// Partitions returns the total partition count across sends (zero when the
// plan was compiled without WithPartitions).
func (lx *LayoutExchange) Partitions() int {
	if lx.ps == nil {
		return 0
	}
	return lx.ps.total
}

// SetPartitionMetrics attaches the partition instrument series (no-op on an
// unpartitioned plan or nil registry).
func (lx *LayoutExchange) SetPartitionMetrics(reg *metrics.Registry) { lx.ps.setMetrics(reg) }

// Complete blocks until every transfer of the current Start has finished.
func (lx *LayoutExchange) Complete() {
	t0 := time.Now()
	mpi.Waitall(lx.pall)
	lx.AddWait(time.Since(t0))
	if lx.ps != nil {
		if d := lx.ps.drainPack(); d > 0 {
			lx.AddPack(d)
		}
	}
}

// Exchange runs one full Start+Complete cycle, returning the sends posted.
func (lx *LayoutExchange) Exchange() int {
	n := lx.Start()
	lx.Complete()
	return n
}

// Close releases the persistent endpoints. The plan may be rebuilt against
// the same world afterwards without cross-matching stale endpoints.
func (lx *LayoutExchange) Close() error {
	for _, r := range lx.pall {
		r.Free()
	}
	lx.precvs, lx.psends, lx.pall = nil, nil, nil
	return nil
}
