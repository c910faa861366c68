package core

import (
	"fmt"
	"time"

	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/shmem"
)

// ShiftView implements the Shift ghost-zone exchange the paper discusses as
// related work (Palmer & Nieplocha): dimensions are exchanged one after
// another — ±i, then ±j, then ±k — and each phase forwards the ghost data
// received in earlier phases, so corner and edge neighbors are reached
// transitively with only 6 messages per rank. Each phase's slab is scattered
// across brick storage, so Shift fundamentally needs either packing or
// memory mapping; this implementation builds mmap views over the slabs (the
// paper's observation that Shift "is straightforward to implement using
// memory mapping"), with a copy-based fallback on unmapped storage.
//
// Shift trades message count (6 vs Layout's 42 or MemMap's 26) for three
// serialized communication phases per exchange.
//
// As an Exchanger, the whole three-phase exchange runs inside Start (the
// phases cannot overlap computation: each forwards ghost data the previous
// one received) and Complete is a no-op. The six transfers are pre-matched
// once and every phase reuses its fixed slab windows.
type ShiftView struct {
	PlanBase
	e        *BrickExchanger
	bs       *BrickStorage
	phases   [3][2]shiftMsg // [axis][0: negative dir, 1: positive dir]
	degraded bool
	preqs    [3]phaseReqs // persistent per-axis request sets
}

var _ Exchanger = (*ShiftView)(nil)

// phaseReqs is one axis phase's persistent requests.
type phaseReqs struct {
	recvs []*mpi.Request
	sends []*mpi.Request
	all   []*mpi.Request
}

type shiftMsg struct {
	dir  layout.Set // face direction of the transfer
	send *slabView  // data sent to the neighbor at dir
	recv *slabView  // ghost slab filled from the neighbor at dir
}

// slabView is a (possibly aliasing) contiguous window over a scattered set
// of bricks.
type slabView struct {
	spans []Span
	view  *shmem.View
	flat  []float64
}

// NewShiftView precomputes the six per-phase slab views and compiles the
// exchange plan.
func NewShiftView(e *BrickExchanger, bs *BrickStorage) (*ShiftView, error) {
	sv := &ShiftView{e: e, bs: bs}
	d := e.d
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			dir := axisDir(axis, side)
			send, err := sv.makeSlab(d, sendSlabCoords(d, axis, side))
			if err != nil {
				return nil, fmt.Errorf("core: shift send slab %v: %w", dir, err)
			}
			recv, err := sv.makeSlab(d, recvSlabCoords(d, axis, side))
			if err != nil {
				return nil, fmt.Errorf("core: shift recv slab %v: %w", dir, err)
			}
			sv.phases[axis][side] = shiftMsg{dir: dir, send: send, recv: recv}
		}
	}
	// Compile the plan in phase order — receives then sends within each
	// axis, the same program order on every rank so persistent endpoints
	// pair deterministically.
	plan := ExchangePlan{Variant: "shift"}
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			m := sv.phases[axis][side]
			src := e.rank[m.dir]
			if src < 0 {
				continue
			}
			// The incoming data comes from the neighbor at dir; it sent its
			// own slab for the opposite side.
			tag := dirIndex(m.dir.Opposite())*tagStride + 50 + axis
			plan.Recvs = append(plan.Recvs, PlanMsg{Peer: src, Tag: tag, Bytes: int64(8 * len(m.recv.flat))})
			sv.preqs[axis].recvs = append(sv.preqs[axis].recvs, e.comm.RecvInit(src, tag, m.recv.flat))
		}
		for side := 0; side < 2; side++ {
			m := sv.phases[axis][side]
			dst := e.rank[m.dir]
			if dst < 0 {
				continue
			}
			tag := dirIndex(m.dir)*tagStride + 50 + axis
			plan.Sends = append(plan.Sends, PlanMsg{Peer: dst, Tag: tag, Bytes: int64(8 * len(m.send.flat))})
			sv.preqs[axis].sends = append(sv.preqs[axis].sends, e.comm.SendInit(dst, tag, m.send.flat))
		}
		pr := &sv.preqs[axis]
		pr.all = make([]*mpi.Request, 0, len(pr.recvs)+len(pr.sends))
		pr.all = append(append(pr.all, pr.recvs...), pr.sends...)
	}
	sv.SetPlan(plan)
	return sv, nil
}

// axisDir returns the face direction for axis (0-based) and side (0 =
// negative, 1 = positive).
func axisDir(axis, side int) layout.Set {
	d := axis + 1
	if side == 0 {
		d = -d
	}
	return layout.FromDirs(d)
}

// sendSlabCoords lists the brick grid coordinates sent along axis/side: the
// surface band of width g on that side, spanning the full extended range on
// already-exchanged axes (< axis) and the domain range on later axes.
func sendSlabCoords(d *BrickDecomp, axis, side int) [][3]int {
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		switch {
		case a == axis:
			if side == 0 {
				lo[a], hi[a] = d.g, 2*d.g
			} else {
				lo[a], hi[a] = d.s[a], d.g+d.s[a]
			}
		case a < axis:
			lo[a], hi[a] = 0, d.n[a] // includes ghosts filled in earlier phases
		default:
			lo[a], hi[a] = d.g, d.g+d.s[a]
		}
	}
	return boxCoords(lo, hi)
}

// recvSlabCoords lists the ghost bricks filled from axis/side: the ghost
// band beyond the domain on that side, with the same cross-section as the
// matching sender slab.
func recvSlabCoords(d *BrickDecomp, axis, side int) [][3]int {
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		switch {
		case a == axis:
			if side == 0 {
				lo[a], hi[a] = 0, d.g
			} else {
				lo[a], hi[a] = d.g+d.s[a], d.n[a]
			}
		case a < axis:
			lo[a], hi[a] = 0, d.n[a]
		default:
			lo[a], hi[a] = d.g, d.g+d.s[a]
		}
	}
	return boxCoords(lo, hi)
}

func boxCoords(lo, hi [3]int) [][3]int {
	var out [][3]int
	for k := lo[2]; k < hi[2]; k++ {
		for j := lo[1]; j < hi[1]; j++ {
			for i := lo[0]; i < hi[0]; i++ {
				out = append(out, [3]int{i, j, k})
			}
		}
	}
	return out
}

// makeSlab converts grid coordinates to storage spans IN GEOMETRIC ORDER
// and builds a contiguous window over them. Geometric (grid-lexicographic)
// order is the correspondence contract between the two ends of a shift
// transfer: an axis shift preserves it, while storage order differs between
// a sender's surface bricks and a receiver's ghost bricks.
func (sv *ShiftView) makeSlab(d *BrickDecomp, coords [][3]int) (*slabView, error) {
	idxs := make([]int, 0, len(coords))
	for _, c := range coords {
		idx := d.BrickIndex(c)
		if idx < 0 {
			return nil, fmt.Errorf("unmapped brick at %v", c)
		}
		idxs = append(idxs, idx)
	}
	var spans []Span
	for _, idx := range idxs {
		if n := len(spans); n > 0 && spans[n-1].End() == idx {
			spans[n-1].NBricks++
			spans[n-1].Padded++
		} else {
			spans = append(spans, Span{Start: idx, NBricks: 1, Padded: 1})
		}
	}
	s := &slabView{spans: spans}
	chunk := sv.bs.Chunk()
	chunkBytes := 8 * chunk
	if len(spans) == 1 {
		sp := spans[0]
		s.flat = sv.bs.Data[sp.Start*chunk : sp.End()*chunk]
		return s, nil
	}
	if arena := sv.bs.arena; arena != nil {
		segs := make([]shmem.Segment, len(spans))
		aligned := true
		for i, sp := range spans {
			segs[i] = shmem.Segment{Offset: sp.Start * chunkBytes, Len: sp.NBricks * chunkBytes}
			if segs[i].Offset%arena.PageSize() != 0 || segs[i].Len%arena.PageSize() != 0 {
				aligned = false
			}
		}
		if aligned || !arena.Mapped() {
			view, err := arena.MapVector(segs)
			if err != nil {
				return nil, err
			}
			s.view = view
			s.flat = view.Float64s()
			if !view.Mapped() {
				sv.degraded = true
			}
			return s, nil
		}
	}
	// Copy-based fallback window.
	total := 0
	for _, sp := range spans {
		total += sp.NBricks * chunk
	}
	s.flat = make([]float64, total)
	sv.degraded = true
	return s, nil
}

// gather refreshes a copy-based window from storage before sending.
func (s *slabView) gather(bs *BrickStorage) {
	if s.view != nil {
		s.view.Gather()
		return
	}
	if len(s.spans) == 1 {
		return // aliases storage directly
	}
	chunk := bs.Chunk()
	off := 0
	for _, sp := range s.spans {
		n := sp.NBricks * chunk
		copy(s.flat[off:off+n], bs.Data[sp.Start*chunk:sp.End()*chunk])
		off += n
	}
}

// scatter pushes a copy-based window back into storage after receiving.
func (s *slabView) scatter(bs *BrickStorage) {
	if s.view != nil {
		s.view.Scatter()
		return
	}
	if len(s.spans) == 1 {
		return
	}
	chunk := bs.Chunk()
	off := 0
	for _, sp := range s.spans {
		n := sp.NBricks * chunk
		copy(bs.Data[sp.Start*chunk:sp.End()*chunk], s.flat[off:off+n])
		off += n
	}
}

// Degraded reports whether any slab window is copy-based (effectively
// packing) rather than an aliasing mmap view.
func (sv *ShiftView) Degraded() bool { return sv.degraded }

// NumMessages returns the messages per exchange: 2 per dimension = 6 in 3D.
func (sv *ShiftView) NumMessages() int {
	n := 0
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			if sv.e.rank[sv.phases[axis][side].dir] >= 0 {
				n++
			}
		}
	}
	return n
}

// Exchange runs the three-phase shift exchange, returning the sends
// posted. It is equivalent to Start (Complete is a no-op for Shift).
func (sv *ShiftView) Exchange() int { return sv.Start() }

// Start runs the full three-phase shift exchange. Within each phase, both
// directions proceed concurrently; the phase completes before the next
// begins (later phases forward data received earlier), which is why Shift
// cannot overlap computation and Complete is a no-op. Phase time lands in
// Call (posting), Wait (completion), and — degraded storage only — Pack
// (gather/scatter copies).
func (sv *ShiftView) Start() int {
	e := sv.e
	n := 0
	for axis := 0; axis < 3; axis++ {
		pr := &sv.preqs[axis]
		t0 := time.Now()
		mpi.Startall(pr.recvs)
		call := time.Since(t0)
		if sv.degraded {
			// Aliasing views need no gather; only copy-based windows do.
			t0 = time.Now()
			for side := 0; side < 2; side++ {
				m := sv.phases[axis][side]
				if e.rank[m.dir] >= 0 {
					m.send.gather(sv.bs)
				}
			}
			sv.AddPack(time.Since(t0))
		}
		t0 = time.Now()
		mpi.Startall(pr.sends)
		n += len(pr.sends)
		sv.AddCall(call + time.Since(t0))
		t0 = time.Now()
		mpi.Waitall(pr.all)
		sv.AddWait(time.Since(t0))
		if sv.degraded {
			t0 = time.Now()
			for side := 0; side < 2; side++ {
				m := sv.phases[axis][side]
				if e.rank[m.dir] >= 0 {
					m.recv.scatter(sv.bs)
				}
			}
			sv.AddPack(time.Since(t0))
		}
	}
	sv.RecordStart()
	return n
}

// Complete is a no-op: Start runs the serialized phases to completion.
func (sv *ShiftView) Complete() {}

// Close releases the mmap views and persistent endpoints.
func (sv *ShiftView) Close() error {
	// Free every endpoint before unmapping any slab view: the views back
	// the persistent buffers, and Free retracts undelivered Starts and
	// serializes against a peer's in-flight copy (see ExchangeView.Close).
	for axis := 0; axis < 3; axis++ {
		for _, r := range sv.preqs[axis].all {
			r.Free()
		}
		sv.preqs[axis] = phaseReqs{}
	}
	var first error
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			for _, s := range []*slabView{sv.phases[axis][side].send, sv.phases[axis][side].recv} {
				if s != nil && s.view != nil {
					if err := s.view.Close(); err != nil && first == nil {
						first = err
					}
				}
			}
		}
	}
	return first
}
