// Package flight is the always-on flight recorder: a per-rank,
// fixed-capacity, overwrite-oldest ring of fixed-size binary event records
// capturing the runtime's communication and compute milestones — sends
// posted, receives posted, deliveries, waits, partition Pready/Parrived,
// surface tiles, step/phase transitions, checkpoints, recoveries, aborts.
//
// The recorder exists for post-mortem forensics: when the watchdog trips,
// a rank aborts, or the recovery budget runs out, every rank's ring is
// snapshotted into a versioned brick-flight/v1 artifact (see codec.go) and
// rendered by cmd/flightreport. Each send is stamped with a per-(src, dst,
// tag) sequence number and each delivery carries its sender's stamp, so
// the cross-rank causal graph — which send unblocked which receive — is
// reconstructible from the rings alone (causal.go builds it).
//
// The artifact is the only per-run event format. Chrome trace JSON is an
// export of it (chrome.go), and the critical-path report (critpath.go)
// reads a rank's longest chain off the same events, merged with a metrics
// snapshot's phase histograms.
//
// The record hot path is allocation-free (one mutex, index arithmetic, a
// fixed-size slot write) and the disabled path is a nil check, so the
// recorder can stay on in production runs; make bench-allocs gates both.
package flight

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies one flight event. The numeric values are part of the
// brick-flight/v1 format; append, never renumber.
type Kind uint8

// Event kinds. Start/Done pairs are recorded as two point events rather
// than one interval, so a hung operation shows its Start with no Done —
// exactly the evidence stall forensics needs.
const (
	KindNone      Kind = iota
	KindSendPost       // send posted (Isend or persistent Start); Seq stamped
	KindRecvPost       // receive posted (Irecv or persistent Start)
	KindDeliver        // payload delivered into this rank's buffer; Seq = sender's
	KindWaitStart      // Request.Wait entered
	KindWaitDone       // Request.Wait returned
	KindPready         // sender marked partition Part ready; Seq = cycle's send
	KindParrived       // partition Part delivered into this rank's buffer
	KindAbort          // this rank originated a world abort
	KindTileStart      // surface tile Part began executing
	KindTileDone       // surface tile Part finished (before its Pready fires)
	KindStep           // step-loop entered absolute step Step
	KindPhase          // step-loop phase transition; Part is a Phase* code
	KindCkpt           // checkpoint epoch spilled at step Step
	KindRecovery       // recovery rewound this rank
	// Connection-lifecycle kinds (tcp transport): Peer is the remote rank.
	KindConnect       // data connection to/from Peer established
	KindDisconnect    // data connection to/from Peer dropped or was closed
	KindHeartbeatMiss // Peer's connection silent past the heartbeat-miss threshold
)

func (k Kind) String() string {
	switch k {
	case KindSendPost:
		return "send-post"
	case KindRecvPost:
		return "recv-post"
	case KindDeliver:
		return "deliver"
	case KindWaitStart:
		return "wait-start"
	case KindWaitDone:
		return "wait-done"
	case KindPready:
		return "pready"
	case KindParrived:
		return "parrived"
	case KindAbort:
		return "abort"
	case KindTileStart:
		return "tile-start"
	case KindTileDone:
		return "tile-done"
	case KindStep:
		return "step"
	case KindPhase:
		return "phase"
	case KindCkpt:
		return "ckpt"
	case KindRecovery:
		return "recovery"
	case KindConnect:
		return "connect"
	case KindDisconnect:
		return "disconnect"
	case KindHeartbeatMiss:
		return "heartbeat-miss"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Phase codes carried in Event.Part of KindPhase events.
const (
	PhaseExchange int32 = iota // exchange posting/completion span
	PhaseInterior              // interior compute (overlaps the wire)
	PhaseSurface               // surface compute (feeds Pready on the pipelined schedule)
)

func phaseName(code int32) string {
	switch code {
	case PhaseExchange:
		return "exchange"
	case PhaseInterior:
		return "interior"
	case PhaseSurface:
		return "surface"
	default:
		return fmt.Sprintf("phase(%d)", code)
	}
}

// Event is one fixed-size flight record. All events of one world share the
// recorder's monotonic epoch, so Nanos values are comparable across ranks.
type Event struct {
	Nanos int64  // monotonic nanoseconds since the recorder's epoch
	Seq   uint64 // per-(src, dst, tag) send sequence; 0 when not applicable
	Bytes int64  // payload bytes; 0 when not applicable
	Step  int32  // absolute step at record time; -1 before the first SetStep
	Peer  int32  // peer rank; -1 when none (or a wildcard receive)
	Tag   int32  // message tag; -1 when none (or a wildcard receive)
	Part  int32  // partition index, tile index, or Phase* code; -1 when none
	Kind  Kind
}

// String renders the event with its timestamp, for timelines.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%+12.3fms] ", float64(e.Nanos)/1e6)
	e.writeFields(&b)
	return b.String()
}

// Compact renders the event without its timestamp — the deterministic form
// embedded in StallReport flight tails and golden-tested there.
func (e Event) Compact() string {
	var b strings.Builder
	e.writeFields(&b)
	return b.String()
}

func (e Event) writeFields(b *strings.Builder) {
	b.WriteString(e.Kind.String())
	if e.Step >= 0 {
		fmt.Fprintf(b, " step=%d", e.Step)
	}
	switch e.Kind {
	case KindPhase:
		fmt.Fprintf(b, " phase=%s", phaseName(e.Part))
		return
	case KindTileStart, KindTileDone:
		fmt.Fprintf(b, " tile=%d", e.Part)
		return
	case KindSendPost, KindRecvPost, KindDeliver, KindWaitStart, KindWaitDone,
		KindPready, KindParrived, KindConnect, KindDisconnect, KindHeartbeatMiss:
		if e.Peer >= 0 {
			fmt.Fprintf(b, " peer=%d", e.Peer)
		} else {
			b.WriteString(" peer=any")
		}
		if e.Tag >= 0 {
			fmt.Fprintf(b, " tag=%d", e.Tag)
		} else {
			b.WriteString(" tag=any")
		}
	}
	if e.Part >= 0 && (e.Kind == KindPready || e.Kind == KindParrived || e.Kind == KindDeliver) {
		fmt.Fprintf(b, " part=%d", e.Part)
	}
	if e.Seq > 0 {
		fmt.Fprintf(b, " seq=%d", e.Seq)
	}
	if e.Bytes > 0 {
		fmt.Fprintf(b, " bytes=%d", e.Bytes)
	}
}

// seqKey identifies one directed (dst, tag) message stream of a sending
// rank; together with the ring's rank it names the (src, dst, tag) triple.
type seqKey struct {
	peer, tag int32
}

// Ring is one rank's fixed-capacity event ring. All record methods are
// safe for concurrent use (an overlapped exchange posts from worker
// goroutines while the rank body waits) and safe on a nil receiver — the
// disabled path is exactly one nil check.
type Ring struct {
	rank int
	// epoch is shared across the recorder's rings so Nanos values are
	// cross-rank comparable.
	epoch time.Time
	// step is the absolute step stamped onto every event; the harness step
	// loop advances it. Atomic because workers record concurrently with the
	// step loop's SetStep.
	step atomic.Int32

	mu   sync.Mutex
	buf  []Event
	head uint64            // events ever recorded; buf[head%cap] is the next slot
	seq  map[seqKey]uint64 // per-(peer, tag) send sequence counters
	// drainedTotal/drainedDropped remember the counts already mirrored into
	// a metrics registry, so Drain returns deltas (the TrafficSnapshot
	// idiom: every event lands in exactly one drain).
	drainedTotal, drainedDropped uint64
}

// Rank returns the ring's owning rank.
func (g *Ring) Rank() int { return g.rank }

// SetStep sets the absolute step stamped onto subsequent events.
func (g *Ring) SetStep(step int) {
	if g == nil {
		return
	}
	g.step.Store(int32(step))
}

// Record appends one event. Overwrites the oldest event when full; the
// overwrite is counted by Dropped. Allocation-free.
func (g *Ring) Record(k Kind, peer, tag, part int32, bytes int64, seq uint64) {
	if g == nil {
		return
	}
	nanos := int64(time.Since(g.epoch))
	step := g.step.Load()
	g.mu.Lock()
	g.buf[g.head%uint64(len(g.buf))] = Event{
		Nanos: nanos, Seq: seq, Bytes: bytes,
		Step: step, Peer: peer, Tag: tag, Part: part, Kind: k,
	}
	g.head++
	g.mu.Unlock()
}

// Send stamps the next sequence number of the (peer, tag) stream, records
// the send-post event, and returns the stamp for the envelope to carry.
// Allocation-free once a stream's counter exists (the first send of each
// stream may grow the map).
func (g *Ring) Send(peer, tag, part int32, bytes int64) uint64 {
	if g == nil {
		return 0
	}
	nanos := int64(time.Since(g.epoch))
	step := g.step.Load()
	g.mu.Lock()
	k := seqKey{peer: peer, tag: tag}
	s := g.seq[k] + 1
	g.seq[k] = s
	g.buf[g.head%uint64(len(g.buf))] = Event{
		Nanos: nanos, Seq: s, Bytes: bytes,
		Step: step, Peer: peer, Tag: tag, Part: part, Kind: KindSendPost,
	}
	g.head++
	g.mu.Unlock()
	return s
}

// RecvPost records a posted receive.
func (g *Ring) RecvPost(peer, tag int32, bytes int64) {
	g.Record(KindRecvPost, peer, tag, -1, bytes, 0)
}

// Deliver records a delivery into this rank's buffer, carrying the
// sender's sequence stamp.
func (g *Ring) Deliver(peer, tag, part int32, bytes int64, seq uint64) {
	g.Record(KindDeliver, peer, tag, part, bytes, seq)
}

// StepMark advances the stamped step and records the step boundary.
func (g *Ring) StepMark(step int) {
	if g == nil {
		return
	}
	g.SetStep(step)
	g.Record(KindStep, -1, -1, -1, 0, 0)
}

// Phase records a step-loop phase transition (a Phase* code).
func (g *Ring) Phase(code int32) {
	g.Record(KindPhase, -1, -1, code, 0, 0)
}

// Total returns the number of events ever recorded (including overwritten
// ones). Zero on a nil ring.
func (g *Ring) Total() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.head
}

// Dropped returns how many events have been overwritten by wraparound.
func (g *Ring) Dropped() uint64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.droppedLocked()
}

func (g *Ring) droppedLocked() uint64 {
	if c := uint64(len(g.buf)); g.head > c {
		return g.head - c
	}
	return 0
}

// Drain returns the total and dropped counts accumulated since the
// previous Drain — the metrics-mirroring form: every event is counted in
// exactly one drain, so counters stay correct across recovery epochs.
func (g *Ring) Drain() (total, dropped uint64) {
	if g == nil {
		return 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	d := g.droppedLocked()
	total, dropped = g.head-g.drainedTotal, d-g.drainedDropped
	g.drainedTotal, g.drainedDropped = g.head, d
	return total, dropped
}

// Events returns the retained events, oldest first. Allocates; not for hot
// paths.
func (g *Ring) Events() []Event {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.eventsLocked()
}

func (g *Ring) eventsLocked() []Event {
	c := uint64(len(g.buf))
	if g.head <= c {
		return append([]Event(nil), g.buf[:g.head]...)
	}
	at := g.head % c
	out := make([]Event, 0, c)
	out = append(out, g.buf[at:]...)
	return append(out, g.buf[:at]...)
}

// Tail returns the newest n retained events, oldest of them first.
func (g *Ring) Tail(n int) []Event {
	evs := g.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// DefaultDepth is the per-rank ring capacity when none is configured:
// enough for several steps of an 8-rank partitioned exchange while keeping
// a 1024-rank world's recorder under ~50 MB.
const DefaultDepth = 1024

// Recorder owns one ring per rank, sharing a monotonic epoch.
type Recorder struct {
	depth int
	rings []*Ring
}

// New creates a recorder for a world of the given size; depth <= 0 uses
// DefaultDepth.
func New(ranks, depth int) *Recorder {
	if ranks <= 0 {
		panic("flight: recorder needs a positive rank count")
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	r := &Recorder{depth: depth, rings: make([]*Ring, ranks)}
	epoch := time.Now()
	for i := range r.rings {
		r.rings[i] = &Ring{
			rank:  i,
			epoch: epoch,
			buf:   make([]Event, depth),
			seq:   map[seqKey]uint64{},
		}
		r.rings[i].step.Store(-1)
	}
	return r
}

// Rank returns rank i's ring. Nil on a nil recorder or an out-of-range
// rank (the watchdog's rank -1), so callers chain without guards.
func (r *Recorder) Rank(i int) *Ring {
	if r == nil || i < 0 || i >= len(r.rings) {
		return nil
	}
	return r.rings[i]
}

// Ranks returns the world size the recorder was built for.
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

// Depth returns the per-rank ring capacity.
func (r *Recorder) Depth() int {
	if r == nil {
		return 0
	}
	return r.depth
}

// Snapshot captures every ring into an encodable Snapshot. reason names
// the trigger ("stall", "abort", "recovery-budget"), detail carries its
// message, and pending the stalled operations the causal analysis should
// terminate at.
func (r *Recorder) Snapshot(reason, detail string, pending []PendingRef) *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Reason:  reason,
		Detail:  detail,
		Depth:   r.depth,
		Pending: pending,
		Ranks:   make([]RankLog, len(r.rings)),
	}
	for i, g := range r.rings {
		g.mu.Lock()
		s.Ranks[i] = RankLog{
			Rank:    i,
			Total:   g.head,
			Dropped: g.droppedLocked(),
			Events:  g.eventsLocked(),
		}
		g.mu.Unlock()
	}
	return s
}
