package core

import (
	"time"

	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// Window is one message of a compiled exchange: the peer rank, the tag,
// and the fixed buffer its persistent endpoint receives into or sends from.
// A brick exchange's window also knows the storage spans behind its buffer
// — the partition compiler splits a send window at tile boundaries along
// them — and whether the buffer is a copy of those spans (a degraded MemMap
// or Shift window) rather than storage itself.
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
//
// A plan compiled WithPartitions splits each send at the worker pool's
// surface tiles and runs the pipelined schedule:
//
//	StartRecvs()  — arm this step's receives (ghosts may now be written)
//	...interior compute overlaps in-flight deliveries...
//	Complete()    — block until all of this step's transfers delivered
//	StartSends()  — arm the NEXT exchange's sends with all partitions unready
//	...surface pass; each finished tile t calls ReadyTile(t)...
//
// ReadyTile is called from pool worker goroutines and is safe for distinct
// tiles concurrently; every other method is called by one goroutine at a
// time, as Exchanger requires. The combined Start performs StartRecvs, StartSends and
// ReadyAll, so callers without tile callbacks see the unpartitioned wire
// behaviour bit for bit.
type Engine struct {
	*planBase
	data        []float64 // brick storage behind the windows (nil for arrays)
	chunk       int       // elements per brick of data
	recvWins    []Window
	sendWins    []Window
	recvs       []*mpi.Request
	sends       []*mpi.Request
	all         []*mpi.Request // recvs ++ sends, for one Waitall
	ps          *partState     // non-nil when compiled with WithPartitions
	fill, drain func()
}

var _ Exchanger = (*Engine)(nil)

// NewEngine compiles an exchange over fixed staging windows with the given
// movement steps (either may be nil). Endpoints are created receives first,
// then sends, each in the order given, so ranks that list their windows in
// the same program order pair deterministically.
func NewEngine(comm *mpi.Comm, variant string, recvs, sends []Window, fill, drain func()) *Engine {
	x := newEngine(nil, comm, variant, recvs, sends, nil, nil)
	x.fill, x.drain = fill, drain
	return x
}

// newEngine compiles the endpoints and appends their messages to base's
// plan (a fresh one when base is nil; Shift's three phases share one). bs
// is the brick storage behind the windows, needed by partitioned plans and
// copy windows; tiles, when non-empty, partitions every send.
func newEngine(base *planBase, comm *mpi.Comm, variant string, recvs, sends []Window, bs *BrickStorage, tiles [][2]int) *Engine {
	if base == nil {
		base = &planBase{}
	}
	x := &Engine{planBase: base, recvWins: recvs, sendWins: sends}
	if bs != nil {
		x.data, x.chunk = bs.Data, bs.Chunk()
	}
	var tileOf []int
	if len(tiles) > 0 {
		tileOf = tileOwnerTable(tiles, len(x.data)/x.chunk)
		x.ps = newPartState(len(tiles), x.data)
	}
	p := &base.plan
	p.Variant = variant
	x.all = make([]*mpi.Request, 0, len(recvs)+len(sends))
	for _, w := range recvs {
		p.Recvs = append(p.Recvs, PlanMsg{Peer: w.Peer, Tag: w.Tag, Bytes: int64(8 * len(w.Buf))})
		x.all = append(x.all, comm.RecvInit(w.Peer, w.Tag, w.Buf))
	}
	for i := range x.sendWins {
		w := &x.sendWins[i]
		p.Sends = append(p.Sends, PlanMsg{Peer: w.Peer, Tag: w.Tag, Bytes: int64(8 * len(w.Buf))})
		if x.ps == nil {
			x.all = append(x.all, comm.SendInit(w.Peer, w.Tag, w.Buf))
			continue
		}
		mp := compileWindowParts(w.spans, x.chunk, tileOf)
		req := comm.PsendInit(w.Peer, w.Tag, w.Buf, mp.bounds)
		x.ps.addMsg(req, w, mp)
		p.Partitions = append(p.Partitions, len(mp.owners))
		x.all = append(x.all, req)
	}
	x.recvs, x.sends = x.all[:len(recvs):len(recvs)], x.all[len(recvs):]
	base.sendBytes = p.SendBytes()
	return x
}

// Start posts one exchange — receives, the fill step, then the sends with
// every partition ready — and returns the number of sends posted. Windows
// are live in flight: callers overlapping computation touch neither surface
// nor ghost data until Complete returns.
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
	if x.ps != nil {
		x.ps.arm()
		x.ps.readyAll()
	}
	x.tm.Call += time.Since(t0)
}

// move runs one on-node movement step, charged to Pack.
func (x *Engine) move(step func()) {
	t0 := time.Now()
	step()
	x.tm.Pack += time.Since(t0)
}

// StartRecvs arms this step's receives: ghost data may be written by
// in-flight deliveries from here until Complete returns.
func (x *Engine) StartRecvs() {
	t0 := time.Now()
	mpi.Startall(x.recvs)
	x.tm.Call += time.Since(t0)
}

// StartSends arms the next exchange's sends with every partition unready;
// the surface pass then releases them tile by tile through ReadyTile, and a
// copy window's segment is refreshed just before its partition fires.
// Accounts one plan start (the pipelined schedule calls StartRecvs and
// StartSends once per step, like the combined Start).
func (x *Engine) StartSends() int {
	t0 := time.Now()
	mpi.Startall(x.sends)
	if x.ps != nil {
		x.ps.arm()
	}
	x.tm.Call += time.Since(t0)
	x.recordStart()
	return len(x.sends)
}

// ReadyTile fires every armed partition owned by surface tile t.
func (x *Engine) ReadyTile(t int) {
	if x.ps != nil {
		x.ps.readyTile(t)
	}
}

// ReadyAll marks every armed partition ready (the prologue path).
func (x *Engine) ReadyAll() {
	if x.ps != nil {
		x.ps.readyAll()
	}
}

// Partitions returns the total partition count across sends (zero when the
// plan was compiled without WithPartitions).
func (x *Engine) Partitions() int {
	if x.ps == nil {
		return 0
	}
	return x.ps.total
}

// SetPartitionMetrics attaches the partition instrument series (no-op on an
// unpartitioned plan or nil registry).
func (x *Engine) SetPartitionMetrics(reg *metrics.Registry) { x.ps.setMetrics(reg) }

// Complete blocks until every transfer of the current exchange has
// finished, then runs the drain step.
func (x *Engine) Complete() {
	t0 := time.Now()
	mpi.Waitall(x.all)
	x.tm.Wait += time.Since(t0)
	if x.ps != nil {
		if d := x.ps.drainPack(); d > 0 {
			x.tm.Pack += d
		}
	}
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
