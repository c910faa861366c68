package core

import (
	"time"

	"github.com/bricklab/brick/internal/mpi"
)

// Window is one message of a compiled exchange: the peer rank, the tag,
// and the fixed buffer its persistent endpoint receives into or sends from.
// A brick exchange's window also knows the storage spans behind its buffer
// and whether the buffer is a copy of those spans (a degraded MemMap or
// Shift window) rather than storage itself.
type Window struct {
	Peer int
	Tag  int
	Buf  []float64

	spans  []Span
	copied bool
}

// Engine is the compiled persistent exchange every variant runs. Variants
// differ only in their windows and in at most two on-node movement steps,
// both timed as Pack: fill runs after the receives are posted and before
// the sends (YASK's pack, the send-side datatype walk, the gather of copy
// windows), drain after the wait (unpack, the receive-side datatype walk,
// Shift's scatter). A nil step is never timed, so a pack-free plan reports
// Pack == 0 exactly.
type Engine struct {
	*planBase
	data        []float64 // brick storage behind the windows (nil for arrays)
	chunk       int       // elements per brick of data
	recvWins    []Window
	sendWins    []Window
	recvs       []*mpi.Request
	sends       []*mpi.Request
	all         []*mpi.Request // recvs ++ sends, for one Waitall
	fill, drain func()
}

var _ Exchanger = (*Engine)(nil)

// NewEngine compiles an exchange over fixed staging windows with the given
// movement steps (either may be nil). Endpoints are created receives first,
// then sends, each in the order given, so ranks that list their windows in
// the same program order pair deterministically.
func NewEngine(comm *mpi.Comm, variant string, recvs, sends []Window, fill, drain func()) *Engine {
	x := newEngine(nil, comm, variant, recvs, sends, nil)
	x.fill, x.drain = fill, drain
	return x
}

// newEngine compiles the endpoints and appends their messages to base's
// plan (a fresh one when base is nil; Shift's three phases share one). bs
// is the brick storage behind the windows, which copy windows read and
// write.
func newEngine(base *planBase, comm *mpi.Comm, variant string, recvs, sends []Window, bs *BrickStorage) *Engine {
	if base == nil {
		base = &planBase{}
	}
	x := &Engine{planBase: base, recvWins: recvs, sendWins: sends}
	if bs != nil {
		x.data, x.chunk = bs.Data, bs.Chunk()
	}
	p := &base.plan
	p.Variant = variant
	x.all = make([]*mpi.Request, 0, len(recvs)+len(sends))
	for _, w := range recvs {
		p.Recvs = append(p.Recvs, PlanMsg{Peer: w.Peer, Tag: w.Tag, Bytes: int64(8 * len(w.Buf))})
		x.all = append(x.all, comm.RecvInit(w.Peer, w.Tag, w.Buf))
	}
	for _, w := range sends {
		p.Sends = append(p.Sends, PlanMsg{Peer: w.Peer, Tag: w.Tag, Bytes: int64(8 * len(w.Buf))})
		x.all = append(x.all, comm.SendInit(w.Peer, w.Tag, w.Buf))
	}
	x.recvs, x.sends = x.all[:len(recvs):len(recvs)], x.all[len(recvs):]
	base.sendBytes = p.SendBytes()
	return x
}

// Start posts one exchange — receives, the fill step, then the sends — and
// returns the number of sends posted. Windows are live in flight: callers
// overlapping computation touch neither surface nor ghost data until
// Complete returns.
func (x *Engine) Start() int {
	x.start()
	x.recordStart()
	return len(x.sends)
}

// start is Start without the plan-start count (Shift counts one start for
// its three phases).
func (x *Engine) start() {
	t0 := time.Now()
	mpi.Startall(x.recvs)
	if x.fill != nil {
		call := time.Since(t0)
		x.move(x.fill)
		t0 = time.Now().Add(-call)
	}
	mpi.Startall(x.sends)
	x.tm.Call += time.Since(t0)
}

// move runs one on-node movement step, charged to Pack.
func (x *Engine) move(step func()) {
	t0 := time.Now()
	step()
	x.tm.Pack += time.Since(t0)
}

// Complete blocks until every transfer of the current exchange has
// finished, then runs the drain step.
func (x *Engine) Complete() {
	t0 := time.Now()
	mpi.Waitall(x.all)
	x.tm.Wait += time.Since(t0)
	if x.drain != nil {
		x.move(x.drain)
	}
}

// Exchange runs one full Start+Complete cycle, returning the sends posted.
func (x *Engine) Exchange() int {
	n := x.Start()
	x.Complete()
	return n
}

// Close frees the persistent endpoints. Free retracts undelivered Starts
// and serializes against a peer's delivery, so callers unmap any view
// behind a window only after Close. The plan may be rebuilt against the
// same world afterwards without cross-matching stale endpoints.
func (x *Engine) Close() error {
	for _, r := range x.all {
		r.Free()
	}
	x.recvs, x.sends, x.all = nil, nil, nil
	return nil
}

// gather refreshes every copy send window from the storage spans behind it.
func (x *Engine) gather() {
	for i := range x.sendWins {
		if w := &x.sendWins[i]; w.copied {
			x.copySpans(w, false)
		}
	}
}

// scatter pushes every copy receive window into the storage spans behind it.
func (x *Engine) scatter() {
	for i := range x.recvWins {
		if w := &x.recvWins[i]; w.copied {
			x.copySpans(w, true)
		}
	}
}

func (x *Engine) copySpans(w *Window, toStorage bool) {
	off := 0
	for _, sp := range w.spans {
		n := sp.Padded * x.chunk
		win, stor := w.Buf[off:off+n], x.data[sp.Start*x.chunk:sp.PaddedEnd()*x.chunk]
		if toStorage {
			copy(stor, win)
		} else {
			copy(win, stor)
		}
		off += n
	}
}

// rebindCopy replaces send window i's buffer with buf, a copy of its spans,
// rebinding the persistent endpoint: the peer sees the same tag and length.
func (x *Engine) rebindCopy(i int, buf []float64) {
	w := &x.sendWins[i]
	w.Buf, w.copied = buf, true
	x.sends[i].Rebind(buf)
}

// hasCopies reports whether any window in ws is a copy.
func hasCopies(ws []Window) bool {
	for _, w := range ws {
		if w.copied {
			return true
		}
	}
	return false
}
