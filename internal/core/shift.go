package core

import (
	"fmt"

	"github.com/bricklab/brick/internal/layout"
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
// As an Exchanger, the whole exchange runs inside Start as three engine
// phases back to back (the phases cannot overlap computation: each forwards
// ghost data the previous one received) and Complete is a no-op. The six
// transfers are pre-matched once into one plan; a copy slab is gathered as
// its phase's fill step and scattered as its drain step.
type ShiftView struct {
	planBase
	phases [3]*Engine    // ±i, then ±j, then ±k
	views  []*shmem.View // mapped slab views, unmapped after the endpoints are freed
}

var _ Exchanger = (*ShiftView)(nil)

// NewShiftView builds the six per-phase slab windows and compiles the
// exchange plan in phase order — receives then sends within each axis, the
// same program order on every rank.
func NewShiftView(e *BrickExchanger, bs *BrickStorage) (*ShiftView, error) {
	sv := &ShiftView{}
	d := e.d
	var recvs, sends [3][]Window
	for axis := 0; axis < 3; axis++ {
		for side := 0; side < 2; side++ {
			dir := axisDir(axis, side)
			peer := e.rank[dir]
			if peer < 0 {
				continue
			}
			send, err := sv.slab(d, bs, peer, dirIndex(dir)*tagStride+50+axis, sendSlabCoords(d, axis, side))
			if err != nil {
				return nil, fmt.Errorf("core: shift send slab %v: %w", dir, err)
			}
			// The incoming data comes from the neighbor at dir; it sent its
			// own slab for the opposite side.
			recv, err := sv.slab(d, bs, peer, dirIndex(dir.Opposite())*tagStride+50+axis, recvSlabCoords(d, axis, side))
			if err != nil {
				return nil, fmt.Errorf("core: shift recv slab %v: %w", dir, err)
			}
			recvs[axis] = append(recvs[axis], recv)
			sends[axis] = append(sends[axis], send)
		}
	}
	for axis := range sv.phases {
		ph := newEngine(&sv.planBase, e.comm, "shift", recvs[axis], sends[axis], bs)
		if hasCopies(ph.sendWins) {
			ph.fill = ph.gather
		}
		if hasCopies(ph.recvWins) {
			ph.drain = ph.scatter
		}
		sv.phases[axis] = ph
	}
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

// slab converts grid coordinates to storage spans IN GEOMETRIC ORDER and
// builds a contiguous window over them. Geometric (grid-lexicographic)
// order is the correspondence contract between the two ends of a shift
// transfer: an axis shift preserves it, while storage order differs between
// a sender's surface bricks and a receiver's ghost bricks.
func (sv *ShiftView) slab(d *BrickDecomp, bs *BrickStorage, peer, tag int, coords [][3]int) (Window, error) {
	var spans []Span
	for _, c := range coords {
		idx := d.BrickIndex(c)
		if idx < 0 {
			return Window{}, fmt.Errorf("unmapped brick at %v", c)
		}
		if n := len(spans); n > 0 && spans[n-1].End() == idx {
			spans[n-1].NBricks++
			spans[n-1].Padded++
		} else {
			spans = append(spans, Span{Start: idx, NBricks: 1, Padded: 1})
		}
	}
	w, view, why := spanWindow(bs, peer, tag, spans)
	if view != nil {
		sv.views = append(sv.views, view)
	}
	if why != "" {
		sv.markDegraded(why)
	}
	return w, nil
}

// Degraded reports whether any slab window is copy-based (effectively
// packing) rather than an aliasing mmap view.
func (sv *ShiftView) Degraded() bool { return sv.plan.Degraded != "" }

// Exchange runs the three-phase shift exchange, returning the sends
// posted. It is equivalent to Start (Complete is a no-op for Shift).
func (sv *ShiftView) Exchange() int { return sv.Start() }

// Start runs the full three-phase shift exchange. Within each phase, both
// directions proceed concurrently; the phase completes before the next
// begins (later phases forward data received earlier), which is why Shift
// cannot overlap computation and Complete is a no-op. Phase time lands in
// Call (posting), Wait (completion), and — copy slabs only — Pack
// (gather/scatter copies). The three phases count as one plan start.
func (sv *ShiftView) Start() int {
	n := 0
	for _, ph := range sv.phases {
		ph.start()
		ph.Complete()
		n += len(ph.sends)
	}
	sv.recordStart()
	return n
}

// Complete is a no-op: Start runs the serialized phases to completion.
func (sv *ShiftView) Complete() {}

// Close frees every phase's endpoints, then unmaps the slab views (see
// ExchangeView.Close for why in that order).
func (sv *ShiftView) Close() error {
	for _, ph := range sv.phases {
		ph.Close()
	}
	var first error
	for _, v := range sv.views {
		if err := v.Close(); err != nil && first == nil {
			first = err
		}
	}
	sv.views = nil
	return first
}
