package grid

import (
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

// regions3 is layout.Regions(3), hoisted so the per-step pack and unpack
// loops do not rebuild it.
var regions3 = layout.Regions(3)

// Exchange tags: one message per neighbor per exchange, keyed by the
// sender's direction index so tags stay unique on tiny periodic grids.
func gridTag(senderDir layout.Set) int {
	for i, r := range layout.Regions(3) {
		if r == senderDir {
			return i
		}
	}
	panic("grid: not a 3D direction")
}

// PackExchanger performs the conventional packed ghost-zone exchange: pack
// each neighbor's surface region into a buffer, send, receive, unpack — one
// message per neighbor, and every byte copied twice on-node (the red
// "Packing" bars of Figure 1).
//
// The staging buffers are fixed at construction, so the wire half of every
// step reuses pre-matched requests; the pack/unpack copies remain — they
// are what this baseline measures.
type PackExchanger struct {
	core.PlanBase
	g      *Grid
	rank   map[layout.Set]int
	sbuf   map[layout.Set][]float64
	rbuf   map[layout.Set][]float64
	precvs []*mpi.Request
	psends []*mpi.Request
	pall   []*mpi.Request
}

var _ core.Exchanger = (*PackExchanger)(nil)

func neighborRanks(cart *mpi.Cart) map[layout.Set]int {
	m := make(map[layout.Set]int, 26)
	for _, s := range layout.Regions(3) {
		m[s] = cart.Neighbor([]int{s.Axis(3), s.Axis(2), s.Axis(1)})
	}
	return m
}

// NewPackExchanger allocates fixed pack buffers for every neighbor and
// compiles the exchange plan.
func NewPackExchanger(g *Grid, cart *mpi.Cart) *PackExchanger {
	e := &PackExchanger{
		g:    g,
		rank: neighborRanks(cart),
		sbuf: map[layout.Set][]float64{},
		rbuf: map[layout.Set][]float64{},
	}
	for _, s := range layout.Regions(3) {
		lo, hi := g.SendRegion(s)
		e.sbuf[s] = make([]float64, RegionCount(lo, hi))
		lo, hi = g.RecvRegion(s)
		e.rbuf[s] = make([]float64, RegionCount(lo, hi))
	}
	compilePlan(&e.PlanBase, "pack", cart.Comm(), e.rank, e.sbuf, e.rbuf,
		&e.precvs, &e.psends, &e.pall)
	return e
}

// compilePlan builds the per-neighbor staged-buffer plan shared by the
// pack and derived-datatype exchangers: one receive and one send per
// neighbor over fixed staging buffers, in the deterministic Regions order
// (receives first, then sends — the same program order on every rank, so
// persistent endpoints pair deterministically).
func compilePlan(base *core.PlanBase, variant string, comm *mpi.Comm, rank map[layout.Set]int,
	sbuf, rbuf map[layout.Set][]float64, precvs, psends, pall *[]*mpi.Request) {
	plan := core.ExchangePlan{Variant: variant}
	for _, s := range layout.Regions(3) {
		src := rank[s]
		if src < 0 {
			continue
		}
		tag := gridTag(s.Opposite())
		plan.Recvs = append(plan.Recvs, core.PlanMsg{Peer: src, Tag: tag, Bytes: int64(8 * len(rbuf[s]))})
		*precvs = append(*precvs, comm.RecvInit(src, tag, rbuf[s]))
	}
	for _, s := range layout.Regions(3) {
		dst := rank[s]
		if dst < 0 {
			continue
		}
		tag := gridTag(s)
		plan.Sends = append(plan.Sends, core.PlanMsg{Peer: dst, Tag: tag, Bytes: int64(8 * len(sbuf[s]))})
		*psends = append(*psends, comm.SendInit(dst, tag, sbuf[s]))
	}
	*pall = make([]*mpi.Request, 0, len(*precvs)+len(*psends))
	*pall = append(append(*pall, *precvs...), *psends...)
	base.SetPlan(plan)
}

// Start posts the compiled plan's receives, packs every surface region
// into its fixed staging buffer, and posts the sends. Returns the number
// of sends posted. Overlapping interior compute between Start and
// Complete is safe: in-flight messages touch only the staging buffers.
func (e *PackExchanger) Start() int {
	t0 := time.Now()
	mpi.Startall(e.precvs)
	call := time.Since(t0)

	t0 = time.Now()
	for _, s := range regions3 {
		if e.rank[s] < 0 {
			continue
		}
		lo, hi := e.g.SendRegion(s)
		e.g.Pack(lo, hi, e.sbuf[s])
	}
	e.AddPack(time.Since(t0))

	t0 = time.Now()
	mpi.Startall(e.psends)
	e.AddCall(call + time.Since(t0))
	e.RecordStart()
	return len(e.psends)
}

// Complete waits for the in-flight exchange and unpacks ghost regions.
func (e *PackExchanger) Complete() {
	t0 := time.Now()
	mpi.Waitall(e.pall)
	e.AddWait(time.Since(t0))

	t0 = time.Now()
	for _, s := range regions3 {
		if e.rank[s] < 0 {
			continue
		}
		lo, hi := e.g.RecvRegion(s)
		e.g.Unpack(lo, hi, e.rbuf[s])
	}
	e.AddPack(time.Since(t0))
}

// Close releases the persistent endpoints.
func (e *PackExchanger) Close() error {
	for _, r := range e.pall {
		r.Free()
	}
	e.precvs, e.psends, e.pall = nil, nil, nil
	return nil
}

// TypesExchanger performs the exchange with MPI derived datatypes: no
// application-level packing, but the datatype engine walks every element
// through an interpretive odometer loop on both ends (the paper's
// MPI_Types baseline, up to 460× slower than MemMap).
type TypesExchanger struct {
	core.PlanBase
	g     *Grid
	rank  map[layout.Set]int
	types map[layout.Set]sendRecvTypes
	sbuf  map[layout.Set][]float64
	rbuf  map[layout.Set][]float64
	// Elems counts elements processed by the datatype engine, for modeled
	// per-element cost accounting.
	Elems  int64
	precvs []*mpi.Request
	psends []*mpi.Request
	pall   []*mpi.Request
}

var _ core.Exchanger = (*TypesExchanger)(nil)

type sendRecvTypes struct {
	send, recv mpi.Subarray
}

// NewTypesExchanger precomputes subarray datatypes for every neighbor and
// compiles the exchange plan over the fixed staging buffers.
func NewTypesExchanger(g *Grid, cart *mpi.Cart) *TypesExchanger {
	e := &TypesExchanger{
		g:     g,
		rank:  neighborRanks(cart),
		types: map[layout.Set]sendRecvTypes{},
		sbuf:  map[layout.Set][]float64{},
		rbuf:  map[layout.Set][]float64{},
	}
	for _, s := range layout.Regions(3) {
		slo, shi := g.SendRegion(s)
		rlo, rhi := g.RecvRegion(s)
		e.types[s] = sendRecvTypes{send: g.Subarray(slo, shi), recv: g.Subarray(rlo, rhi)}
		e.sbuf[s] = make([]float64, RegionCount(slo, shi))
		e.rbuf[s] = make([]float64, RegionCount(rlo, rhi))
	}
	compilePlan(&e.PlanBase, "types", cart.Comm(), e.rank, e.sbuf, e.rbuf,
		&e.precvs, &e.psends, &e.pall)
	return e
}

// Start posts the compiled plan's receives, runs the send-side datatype
// walk into the fixed staging buffers (charged as Pack — the interpretive
// element walk is this baseline's cost), and posts the sends. Returns the
// number of sends posted. Overlapping interior compute between Start and
// Complete is safe: in-flight messages touch only the staging buffers.
func (e *TypesExchanger) Start() int {
	t0 := time.Now()
	mpi.Startall(e.precvs)
	call := time.Since(t0)

	t0 = time.Now()
	for _, s := range regions3 {
		if e.rank[s] < 0 {
			continue
		}
		dt := e.types[s].send
		dt.Pack(e.g.Data, e.sbuf[s])
		e.Elems += int64(dt.Count())
	}
	e.AddPack(time.Since(t0))

	t0 = time.Now()
	mpi.Startall(e.psends)
	e.AddCall(call + time.Since(t0))
	e.RecordStart()
	return len(e.psends)
}

// Complete waits for the in-flight exchange and runs the receive-side
// datatype walk into the ghost regions.
func (e *TypesExchanger) Complete() {
	t0 := time.Now()
	mpi.Waitall(e.pall)
	e.AddWait(time.Since(t0))

	t0 = time.Now()
	for _, s := range regions3 {
		if e.rank[s] < 0 {
			continue
		}
		dt := e.types[s].recv
		dt.Unpack(e.rbuf[s], e.g.Data)
		e.Elems += int64(dt.Count())
	}
	e.AddPack(time.Since(t0))
}

// Close releases the persistent endpoints.
func (e *TypesExchanger) Close() error {
	for _, r := range e.pall {
		r.Free()
	}
	e.precvs, e.psends, e.pall = nil, nil, nil
	return nil
}
