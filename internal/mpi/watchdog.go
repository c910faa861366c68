package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bricklab/brick/internal/flight"
)

// The watchdog turns a silent deadlock — a plan bug leaving one request
// unmatched, a peer that died without aborting — into a diagnostic. It is a
// world-level goroutine (started by Run when SetWatchdog was called) that
// samples two things: a progress counter ticked by every completed wait
// (collective messages included), and the count of observably pending
// operations (unmatched sends and receives in the matchers and the shmem
// rings, collective traffic included, persistent endpoints whose Wait
// would block, unpaired persistent endpoints). When operations stay
// pending with zero progress for a full timeout window, the watchdog
// compiles a StallReport naming every pending operation and aborts the
// world with it.
type watchdog struct {
	timeout  time.Duration
	onStall  func(*StallReport)
	progress atomic.Int64
	stop     chan struct{}
	done     chan struct{}
}

// SetWatchdog arms stall detection: if operations stay pending with no
// progress for the given timeout, the world aborts with an *AbortError
// whose Value is the *StallReport (every blocked rank panics with it;
// World.Run re-raises it). A non-nil onStall is invoked with the report
// first — for logging or capture — and the abort still follows, because a
// stalled world cannot make progress afterwards. Call before Run; a zero
// timeout disables the watchdog (the default). When disabled, the runtime
// pays one nil check per completed operation.
func (w *World) SetWatchdog(timeout time.Duration, onStall func(*StallReport)) {
	if timeout <= 0 {
		w.wdog = nil
		return
	}
	w.wdog = &watchdog{timeout: timeout, onStall: onStall}
}

// progressTick records one completed operation for stall detection. The
// transport's tick is unconditional: a world's pending operations can
// belong to ranks of other processes (shmem's peek lists every ring), so
// its stall predicate must see their progress, and this process may run
// without a watchdog while a peer process's watchdog depends on seeing
// ours.
func (w *World) progressTick() {
	if wd := w.wdog; wd != nil {
		wd.progress.Add(1)
	}
	w.tr.progress(1)
}

// progressNow samples the stall-detection counter: local ticks plus the
// transport's world-wide count. Both are monotonic, so the sum changes
// exactly when any attached process completes an operation.
func (w *World) progressNow(wd *watchdog) int64 {
	return wd.progress.Load() + w.tr.progress(0)
}

// startWatchdog launches the monitor goroutine; the returned func stops it
// and waits for it to exit (Run calls it after all ranks returned).
func (w *World) startWatchdog() func() {
	wd := w.wdog
	if wd == nil {
		return func() {}
	}
	wd.stop = make(chan struct{})
	wd.done = make(chan struct{})
	go w.watchLoop(wd)
	return func() {
		close(wd.stop)
		<-wd.done
	}
}

func (w *World) watchLoop(wd *watchdog) {
	defer close(wd.done)
	tick := wd.timeout / 8
	if tick < 200*time.Microsecond {
		tick = 200 * time.Microsecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := int64(-1)
	var since time.Time
	for {
		select {
		case <-wd.stop:
			return
		case <-w.abortCh:
			return
		case <-t.C:
			p := w.progressNow(wd)
			if p != last || w.pendingOps() == 0 {
				last, since = p, time.Time{}
				continue
			}
			if since.IsZero() {
				since = time.Now()
				continue
			}
			if time.Since(since) >= wd.timeout {
				rep := w.StallReport()
				rep.Watchdog = wd.timeout
				if wd.onStall != nil {
					wd.onStall(rep)
				}
				w.abort(WatchdogRank, rep)
				return
			}
		}
	}
}

// pendingOps is the cheap stall predicate: a count of operations that are
// posted but not complete. Zero means the world is quiescent (computing)
// and the watchdog stays silent regardless of elapsed time.
func (w *World) pendingOps() int {
	return len(w.oneShotOps()) + len(w.pairs.pendingOps(w)) + len(w.tr.parked())
}

// PendingOp is one stalled operation in a StallReport. Src/Dst/Tag are -1
// for wildcard receives (AnySource/AnyTag).
type PendingOp struct {
	// Kind classifies the operation (the flight.Pend* constants):
	//
	//	recv-posted     a posted Irecv no send has matched
	//	send-unmatched  an Isend no receive has matched: in the destination's
	//	                unexpected-message queue, or on shmem still in its ring
	//	psend-unpaired  a persistent send endpoint whose RecvInit never
	//	                registered (the classic mismatched-tag plan bug)
	//	precv-unpaired  a persistent receive endpoint whose SendInit never
	//	                registered
	//	psend-active    a started persistent send whose Wait would block:
	//	                its payload is not yet sent (on chan, delivered;
	//	                on shmem and tcp, staged or written)
	//	precv-active    a started persistent receive whose Wait would block:
	//	                its payload has not landed
	//
	// The persistent kinds follow one rule on every backend: an endpoint
	// is listed exactly while its own Wait would block.
	//	recovery-parked a rank parked at the recovery barrier awaiting a
	//	                respawn/give-up verdict (Src is the rank), listed
	//	                by every world that sees the round's parked marks
	Kind       string `json:"kind"`
	Src        int    `json:"src"`
	Dst        int    `json:"dst"`
	Tag        int    `json:"tag"`
	Bytes      int64  `json:"bytes"`
	Persistent bool   `json:"persistent"`
}

// StallReport is the structured dump the watchdog produces on a stall:
// every pending operation with its endpoints, plus the collective waiter
// counts. Its String form is stable (sorted, fixed layout) and golden-
// tested, so log scrapers can rely on it.
type StallReport struct {
	// Size is the world size; Watchdog the armed timeout (zero when the
	// report was taken manually via World.StallReport).
	Size     int           `json:"size"`
	Watchdog time.Duration `json:"watchdog"`
	// Transport names the backend the stalled world runs on.
	Transport string `json:"transport,omitempty"`
	// Barrier/Reduce/Gather count this process's ranks inside each
	// collective; Recovery counts ranks parked at the recovery barrier.
	Barrier  int `json:"barrier"`
	Reduce   int `json:"reduce"`
	Gather   int `json:"gather"`
	Recovery int `json:"recovery"`
	// Pending lists every stalled operation, sorted by (kind, src, dst, tag).
	// Messages on reserved tags are not listed: the collective counts
	// above stand for collective traffic, and pairing descriptors are
	// bookkeeping of the unpaired endpoints listed here.
	Pending []PendingOp `json:"pending"`
	// FlightRank and FlightTail carry the tail of the stalling rank's
	// flight ring when a recorder was attached (SetFlight): the rank is
	// chosen deterministically from the first pending op (its destination,
	// falling back to its source), and the tail holds the newest events in
	// their timestamp-free Compact rendering, oldest first. Empty when no
	// recorder is attached.
	FlightRank int      `json:"flight_rank,omitempty"`
	FlightTail []string `json:"flight_tail,omitempty"`
}

// flightTailLen is how many trailing events of the stalling rank's ring a
// StallReport embeds — enough to show the last step's posting order
// without drowning the report.
const flightTailLen = 16

// StallReport takes a live snapshot of every pending operation. The
// watchdog calls it on stall; tests and debugging hooks may call it at any
// time (it only takes the runtime's internal locks briefly).
func (w *World) StallReport() *StallReport {
	rep := &StallReport{Size: w.size, Transport: w.backend}
	for _, op := range w.oneShotOps() {
		if op.Tag >= AnyTag {
			rep.Pending = append(rep.Pending, op)
		}
	}
	rep.Pending = append(rep.Pending, w.pairs.pendingOps(w)...)
	rep.Barrier = int(w.inColl[collBarrier].Load())
	rep.Reduce = int(w.inColl[collReduce].Load())
	rep.Gather = int(w.inColl[collGather].Load())
	parked := w.tr.parked()
	rep.Recovery = len(parked)
	for _, r := range parked {
		rep.Pending = append(rep.Pending, PendingOp{
			Kind: flight.PendRecoveryParked, Src: r, Dst: -1, Tag: -1,
		})
	}
	sort.Slice(rep.Pending, func(i, j int) bool {
		a, b := rep.Pending[i], rep.Pending[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Tag < b.Tag
	})
	if fr := w.flight.Load(); fr != nil && len(rep.Pending) > 0 {
		victim := rep.Pending[0].Dst
		if victim < 0 || victim >= w.size {
			victim = rep.Pending[0].Src
		}
		if g := fr.Rank(victim); g != nil {
			rep.FlightRank = victim
			for _, e := range g.Tail(flightTailLen) {
				rep.FlightTail = append(rep.FlightTail, e.Compact())
			}
		}
	}
	return rep
}

// wildcard renders -1 endpoints as "any".
func wildcard(v int) string {
	if v < 0 {
		return "any"
	}
	return fmt.Sprintf("%d", v)
}

// String renders the report in a stable, golden-tested layout: a summary
// line, the collective waiter counts, then one line per pending operation
// sorted by (kind, src, dst, tag).
func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall: %d pending ops in world of %d", len(r.Pending), r.Size)
	if r.Watchdog > 0 {
		fmt.Fprintf(&b, " (no progress for %v)", r.Watchdog)
	}
	b.WriteByte('\n')
	if r.Transport != "" {
		fmt.Fprintf(&b, "  transport: %s\n", r.Transport)
	}
	fmt.Fprintf(&b, "  collectives: barrier=%d reduce=%d gather=%d recovery=%d\n",
		r.Barrier, r.Reduce, r.Gather, r.Recovery)
	for _, op := range r.Pending {
		fmt.Fprintf(&b, "  %-14s src=%s dst=%s tag=%s bytes=%d", op.Kind,
			wildcard(op.Src), wildcard(op.Dst), wildcard(op.Tag), op.Bytes)
		if op.Persistent {
			b.WriteString(" persistent")
		}
		b.WriteByte('\n')
	}
	if len(r.FlightTail) > 0 {
		fmt.Fprintf(&b, "  flight tail (rank %d, last %d events):\n", r.FlightRank, len(r.FlightTail))
		for _, line := range r.FlightTail {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
