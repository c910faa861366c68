package grid

import (
	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
)

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

// stage is one neighbor's staged message: the grid region it covers, the
// fixed staging buffer that crosses the wire, and — for TypesExchanger —
// the region's datatype.
type stage struct {
	lo, hi [3]int
	buf    []float64
	dt     mpi.Subarray
}

// stages builds one receive and one send window per neighbor over fixed
// staging buffers, each list in the deterministic Regions order — the same
// program order on every rank — together with the stages behind them;
// typed also builds each region's datatype.
func stages(g *Grid, cart *mpi.Cart, typed bool) (rw, sw []core.Window, recvs, sends []stage) {
	stageOf := func(lo, hi [3]int) stage {
		st := stage{lo: lo, hi: hi, buf: make([]float64, RegionCount(lo, hi))}
		if typed {
			st.dt = g.Subarray(lo, hi)
		}
		return st
	}
	regions := layout.Regions(3)
	rw, sw = make([]core.Window, 0, len(regions)), make([]core.Window, 0, len(regions))
	recvs, sends = make([]stage, 0, len(regions)), make([]stage, 0, len(regions))
	for _, s := range regions {
		peer := cart.Neighbor([]int{s.Axis(3), s.Axis(2), s.Axis(1)})
		if peer < 0 {
			continue
		}
		r, snd := stageOf(g.RecvRegion(s)), stageOf(g.SendRegion(s))
		recvs, sends = append(recvs, r), append(sends, snd)
		rw = append(rw, core.Window{Peer: peer, Tag: gridTag(s.Opposite()), Buf: r.buf})
		sw = append(sw, core.Window{Peer: peer, Tag: gridTag(s), Buf: snd.buf})
	}
	return rw, sw, recvs, sends
}

// PackExchanger performs the conventional packed ghost-zone exchange: pack
// each neighbor's surface region into a buffer, send, receive, unpack — one
// message per neighbor, and every byte copied twice on-node (the red
// "Packing" bars of Figure 1).
//
// The staging buffers are fixed at construction, so the wire half of every
// step reuses pre-matched requests; the pack/unpack copies remain — they
// are the engine's fill and drain steps, and what this baseline measures.
type PackExchanger struct {
	*core.Engine
	g            *Grid
	recvs, sends []stage
}

// NewPackExchanger allocates fixed pack buffers for every neighbor and
// compiles the exchange plan.
func NewPackExchanger(g *Grid, cart *mpi.Cart) *PackExchanger {
	rw, sw, recvs, sends := stages(g, cart, false)
	e := &PackExchanger{g: g, recvs: recvs, sends: sends}
	e.Engine = core.NewEngine(cart.Comm(), "pack", rw, sw, e.pack, e.unpack)
	return e
}

// pack copies every surface region into its staging buffer.
func (e *PackExchanger) pack() {
	for _, st := range e.sends {
		e.g.Pack(st.lo, st.hi, st.buf)
	}
}

// unpack copies every received staging buffer into its ghost region.
func (e *PackExchanger) unpack() {
	for _, st := range e.recvs {
		e.g.Unpack(st.lo, st.hi, st.buf)
	}
}

// TypesExchanger performs the exchange with MPI derived datatypes: no
// application-level packing, but the datatype engine walks every element
// through an interpretive odometer loop on both ends (the paper's
// MPI_Types baseline, up to 460× slower than MemMap). The walks are the
// engine's fill and drain steps, charged as Pack.
type TypesExchanger struct {
	*core.Engine
	g            *Grid
	recvs, sends []stage
	// Elems counts elements processed by the datatype engine, for modeled
	// per-element cost accounting.
	Elems int64
}

// NewTypesExchanger precomputes subarray datatypes for every neighbor and
// compiles the exchange plan over the fixed staging buffers.
func NewTypesExchanger(g *Grid, cart *mpi.Cart) *TypesExchanger {
	rw, sw, recvs, sends := stages(g, cart, true)
	e := &TypesExchanger{g: g, recvs: recvs, sends: sends}
	e.Engine = core.NewEngine(cart.Comm(), "types", rw, sw, e.walkSends, e.walkRecvs)
	return e
}

// walkSends runs the send-side datatype walk into the staging buffers.
func (e *TypesExchanger) walkSends() {
	for _, st := range e.sends {
		st.dt.Pack(e.g.Data, st.buf)
		e.Elems += int64(st.dt.Count())
	}
}

// walkRecvs runs the receive-side datatype walk into the ghost regions.
func (e *TypesExchanger) walkRecvs() {
	for _, st := range e.recvs {
		st.dt.Unpack(st.buf, e.g.Data)
		e.Elems += int64(st.dt.Count())
	}
}
