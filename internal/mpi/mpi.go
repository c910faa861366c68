// Package mpi is an in-process message-passing runtime with MPI-shaped
// semantics: a fixed set of ranks (goroutines), point-to-point Isend/Irecv
// with (source, tag) matching and non-overtaking delivery, Waitall, Barrier,
// reductions, Cartesian topologies, and derived datatypes with a pack
// engine.
//
// It substitutes for MPI in the PPoPP '21 reproduction: the paper's
// experiments measure on-node data movement against message count, and an
// in-process transport exhibits the same structure — each message pays a
// fixed matching/handoff cost (α) and a per-byte delivery copy (1/β), while
// packing-based exchanges pay additional full copies that pack-free
// exchanges avoid. Delivery performs exactly one copy, from the sender's
// buffer into the posted receive buffer, mirroring RDMA placement.
//
// The wire mechanism is pluggable (see transport.go): the default "chan"
// backend pairs ranks over in-process channels, and the "shmem" backend
// moves the same protocol onto a shared-memory segment so ranks may live in
// separate worker processes (see transport_shmem.go and docs/transports.md).
package mpi

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/trace"
)

// Wildcard values for Irecv matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// World owns the ranks of one program run. All collective and matching
// state lives behind the transport seam (tr); the world keeps the
// transport-agnostic machinery — abort, watchdog, fault injection, and the
// observability hooks.
type World struct {
	size int
	tr   Transport
	// sprog is tr's shared-progress view when the backend has one (shmem);
	// cached at construction so the per-operation tick skips the assertion.
	sprog sharedProgress

	rec *trace.Recorder
	reg *metrics.Registry
	// flight is atomic: a worker attaches its recorder after the transport's
	// reader goroutines are already running.
	flight atomic.Pointer[flight.Recorder]

	// Fault tolerance (see abort.go, watchdog.go): abortCh is closed by the
	// first abort and unblocks every pending wait; abortVal carries the
	// cause; wdog is the optional stall detector; fault the optional
	// injector consulted by sends.
	abortOnce sync.Once
	abortCh   chan struct{}
	abortVal  atomic.Pointer[AbortError]
	wdog      *watchdog
	fault     *fault.Injector
	verifyCRC bool           // receive-side payload CRC verify (see crc.go)
	recov     *recoveryState // non-nil inside RunRecoverable (see recovery.go)
}

// SetTrace attaches an event recorder; every Isend/Irecv posting and Wait
// interval is recorded on it. Call before Run. A nil recorder disables
// tracing (the default).
func (w *World) SetTrace(rec *trace.Recorder) { w.rec = rec }

// SetFlight attaches a flight recorder sized for this world; every rank
// records post/deliver/wait/Pready/Parrived/abort events into its ring,
// and the watchdog embeds the stalling rank's tail into StallReports.
// Call before Run. A nil recorder disables recording (the default) at the
// cost of one nil check per operation.
func (w *World) SetFlight(rec *flight.Recorder) { w.flight.Store(rec) }

// Flight returns the attached flight recorder, or nil.
func (w *World) Flight() *flight.Recorder { return w.flight.Load() }

// SetFault attaches a fault injector; every send (one-shot Isend and
// persistent Start) consults it for injected delays and one-shot stalls.
// Call before Run. A nil injector disables injection (the default) at the
// cost of one nil check per send.
func (w *World) SetFault(in *fault.Injector) { w.fault = in }

// SetMetrics attaches a metrics registry; every rank records per-message
// send/recv latency and size histograms and posted-receive match wait time
// on it. Call before Run. A nil registry disables recording (the default)
// at the cost of a single pointer check per operation.
func (w *World) SetMetrics(reg *metrics.Registry) {
	w.reg = reg
	if reg == nil {
		return
	}
	reg.Describe(metrics.MPISendSeconds, "Per-message latency from Isend post to delivery (seconds).")
	reg.Describe(metrics.MPISendBytes, "Per-message payload size at Isend (bytes).")
	reg.Describe(metrics.MPIRecvMatchWaitSeconds, "Time a posted receive waited before a send matched (seconds).")
	reg.Describe(metrics.MPIRecvBytes, "Delivered payload size per receive (bytes).")
	reg.Describe(metrics.MPIWaitSeconds, "Time blocked in Request.Wait (seconds).")
	reg.Describe(metrics.TransportReconnectsTotal, "Connection (re-)establishments per rank/peer pair on connection-oriented transports.")
	reg.Describe(metrics.TransportHeartbeatMissesTotal, "Heartbeat intervals missed per rank/peer pair before a peer was declared dead.")
	reg.Describe(metrics.TransportFramesTotal, "Transport frames by kind (data, pdata, ppart, hb, stale-drop, dup-drop, net-drop, net-dup).")
}

// commMetrics caches one rank's histogram series so the per-message hot
// path never touches the registry lock.
type commMetrics struct {
	sendSeconds   *metrics.Histogram
	sendBytes     *metrics.Histogram
	recvMatchWait *metrics.Histogram
	recvBytes     *metrics.Histogram
	waitSeconds   *metrics.Histogram
}

func newCommMetrics(reg *metrics.Registry, rank int) *commMetrics {
	lb := metrics.Labels{"rank": strconv.Itoa(rank)}
	return &commMetrics{
		sendSeconds:   reg.Histogram(metrics.MPISendSeconds, lb),
		sendBytes:     reg.Histogram(metrics.MPISendBytes, lb),
		recvMatchWait: reg.Histogram(metrics.MPIRecvMatchWaitSeconds, lb),
		recvBytes:     reg.Histogram(metrics.MPIRecvBytes, lb),
		waitSeconds:   reg.Histogram(metrics.MPIWaitSeconds, lb),
	}
}

// NewWorld creates a world with the given number of ranks on the default
// ("chan") transport backend.
func NewWorld(size int) *World {
	w, err := NewWorldOn(DefaultTransport, size)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// newComm builds one rank's handle.
func (w *World) newComm(rank int) *Comm {
	if ra, ok := w.tr.(rankAttacher); ok {
		ra.attachOnDemand(rank)
	}
	c := &Comm{world: w, rank: rank, fl: w.flight.Load().Rank(rank)}
	if w.reg != nil {
		c.m = newCommMetrics(w.reg, rank)
	}
	return c
}

// runRank executes body on one rank goroutine with the standard recover
// protocol: a panic aborts the whole world unless this rank is a victim of
// an abort already in flight.
func (w *World) runRank(rank int, body func(*Comm)) {
	defer func() {
		if p := recover(); p != nil {
			if ae, ok := p.(*AbortError); ok && ae == w.Aborted() {
				// A victim: this rank was unblocked by the
				// world-wide abort, not an originator.
				return
			}
			w.abort(rank, p)
		}
	}()
	body(w.newComm(rank))
}

// Run starts one goroutine per rank, invoking body with that rank's Comm,
// and blocks until every rank returns. A panic in any rank aborts the
// whole world: every other rank blocked in a Wait, Barrier, or collective
// unwinds with the same *AbortError instead of hanging, and Run re-raises
// that *AbortError (carrying the originating rank and recovered value) in
// the caller once all ranks have returned. If SetWatchdog armed stall
// detection, the watchdog runs for the duration of the call.
func (w *World) Run(body func(*Comm)) {
	stopWatchdog := w.startWatchdog()
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w.runRank(rank, body)
		}(r)
	}
	wg.Wait()
	stopWatchdog()
	if ae := w.Aborted(); ae != nil {
		panic(ae)
	}
}

// RunRank runs body for a single rank of the world on the calling
// goroutine, with the same abort/recover protocol as Run. It is the worker
// half of a cross-process world: each worker process attaches to the shared
// segment and runs exactly one rank, while the supervisor (internal/mpi/
// proc) owns the remaining lifecycle. Like Run it re-raises the world's
// *AbortError once the rank has unwound, so a worker exits non-zero when
// the world died.
func (w *World) RunRank(rank int, body func(*Comm)) {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: RunRank rank %d out of range (size %d)", rank, w.size))
	}
	stopWatchdog := w.startWatchdog()
	w.runRank(rank, body)
	stopWatchdog()
	if ae := w.Aborted(); ae != nil {
		panic(ae)
	}
}

// Comm is one rank's handle to the world. Point-to-point operations
// (Isend, Irecv, Send, Recv, Request.Wait, Waitall) and the traffic
// counters are safe for concurrent use from multiple goroutines of the
// owning rank, so an exchange may be posted or completed while compute
// workers run (comm/compute overlap). Collectives (Barrier, reductions)
// remain single-caller: exactly one goroutine per rank at a time.
type Comm struct {
	world *World
	rank  int
	m     *commMetrics // nil unless World.SetMetrics was called
	fl    *flight.Ring // nil unless World.SetFlight was called

	// Traffic counters, drained with TrafficSnapshot. Sends count
	// point-to-point messages initiated by this rank (payload float64s are
	// 8 bytes each).
	sentMsgs, sentBytes, recvMsgs, recvBytes atomic.Int64
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Transport returns the name of the backend the world runs on, for
// metrics labels and diagnostics.
func (c *Comm) Transport() string { return c.world.tr.name() }

// Traffic is one rank's point-to-point traffic since the previous
// TrafficSnapshot (or the start of the run). Sends are counted at Isend,
// receives at Wait; payload float64s are 8 bytes each.
type Traffic struct {
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
	RecvBytes int64
}

// TrafficSnapshot atomically drains the traffic counters, returning the
// counts accumulated since the previous snapshot. Each counter is
// read-and-zeroed in a single atomic swap, so increments from concurrently
// in-flight operations are never lost — every count lands in exactly one
// snapshot. This is the only way to read the counters.
func (c *Comm) TrafficSnapshot() Traffic {
	return Traffic{
		SentMsgs:  c.sentMsgs.Swap(0),
		SentBytes: c.sentBytes.Swap(0),
		RecvMsgs:  c.recvMsgs.Swap(0),
		RecvBytes: c.recvBytes.Swap(0),
	}
}

// Request is an in-flight nonblocking operation (Isend/Irecv), or an
// inactive-until-Start persistent operation (SendInit/RecvInit). Wait
// blocks until the transfer completed; for receives it then reports the
// element count. Persistent requests are reusable: after Wait they return
// to the inactive state and may be Started again.
//
// The request is transport-agnostic: the protocol — how completion is
// signalled, where the payload moves — lives in op (a backend-provided
// reqOp/persOp), while the request carries the generic identity
// (owner, endpoints) and stamps trace/flight/metrics events around the
// protocol calls.
type Request struct {
	comm *Comm // owner, for accounting and abort checks
	op   reqOp // backend protocol; implements persOp for persistent requests

	persistent bool // built by SendInit/RecvInit (reusable, Startable)
	psend      bool // persistent direction: true = send endpoint

	peer, tag int    // endpoints for diagnostics (dst for sends, src for recvs)
	label     string // trace label for persistent Start, "" when tracing is off
}

// Isend starts a nonblocking send of buf to rank dst with the given tag.
// The buffer must not be modified until Wait returns. Delivery copies
// directly into the matching posted receive buffer (single copy).
func (c *Comm) Isend(dst, tag int, buf []float64) *Request {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d (size %d)", dst, c.world.size))
	}
	if tag < 0 {
		panic("mpi: send tag must be non-negative")
	}
	var flips []fault.ByteFlip
	if f := c.world.fault; f != nil {
		if d := f.SendDelay(c.rank); d > 0 {
			time.Sleep(d)
		}
		f.ProcessFault(c.rank)
		flips = f.CorruptSend(c.rank, len(buf))
	}
	c.sentMsgs.Add(1)
	c.sentBytes.Add(int64(8 * len(buf)))
	if rec := c.world.rec; rec != nil {
		rec.Begin(c.rank, trace.KindSend, fmt.Sprintf("send->%d tag=%d", dst, tag), dst, int64(8*len(buf)))()
	}
	seq := c.fl.Send(int32(dst), int32(tag), -1, int64(8*len(buf)))
	if c.m != nil {
		c.m.sendBytes.Observe(float64(8 * len(buf)))
	}
	return c.world.tr.isend(c, dst, tag, buf, flips, seq)
}

// Irecv starts a nonblocking receive into buf from rank src (or AnySource)
// with the given tag (or AnyTag). buf must be at least as long as the
// incoming message.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d (size %d)", src, c.world.size))
	}
	if rec := c.world.rec; rec != nil {
		rec.Begin(c.rank, trace.KindRecv, fmt.Sprintf("recv<-%d tag=%d", src, tag), src, int64(8*len(buf)))()
	}
	c.fl.RecvPost(int32(src), int32(tag), int64(8*len(buf)))
	return c.world.tr.irecv(c, src, tag, buf)
}

// Wait blocks until the request completes. For receives it returns the
// number of elements received; for sends it returns 0. A persistent
// request becomes inactive again and may be re-Started. If the world
// aborts while Wait is blocked, Wait panics with the world's *AbortError
// (recovered by World.Run) instead of hanging.
func (r *Request) Wait() int {
	var m *commMetrics
	var fl *flight.Ring
	if r.comm != nil {
		m = r.comm.m
		fl = r.comm.fl
		if rec := r.comm.world.rec; rec != nil && !r.persistent {
			end := rec.Begin(r.comm.rank, trace.KindWait, "wait", -1, 0)
			defer end()
		}
	}
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	fl.Record(flight.KindWaitStart, int32(r.peer), int32(r.tag), -1, 0, 0)
	r.op.block(r)
	fl.Record(flight.KindWaitDone, int32(r.peer), int32(r.tag), -1, 0, 0)
	n := r.op.finish(r)
	if m != nil {
		m.waitSeconds.Observe(time.Since(t0).Seconds())
	}
	return n
}

// Waitall waits for every request (nil entries are skipped) and returns
// the total number of elements received across them, so callers can check
// exchange volume without tracking per-request returns.
func Waitall(reqs []*Request) int {
	n := 0
	for _, r := range reqs {
		if r != nil {
			n += r.Wait()
		}
	}
	return n
}

// Send is a blocking convenience wrapper: Isend + Wait. On the chan
// backend delivery is rendezvous, so Send blocks until the destination
// posts a matching receive; post receives first in symmetric exchanges.
// (The shmem backend is eager — Send returns once the payload is staged —
// but portable callers should assume rendezvous.)
func (c *Comm) Send(dst, tag int, buf []float64) { c.Isend(dst, tag, buf).Wait() }

// Recv is a blocking convenience wrapper: Irecv + Wait. Returns the number
// of elements received.
func (c *Comm) Recv(src, tag int, buf []float64) int { return c.Irecv(src, tag, buf).Wait() }
