package mpi

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// The watchdog turns a silent deadlock — a plan bug leaving one request
// unmatched, a peer that died without aborting — into a diagnostic. It is a
// world-level goroutine (started by Run when SetWatchdog was called) that
// samples two things: a progress counter ticked by every completed wait,
// barrier passage, and collective, and the count of observably pending
// operations (unmatched sends and receives in the inboxes, persistent
// transfers started but undelivered, unpaired persistent endpoints, ranks
// parked in collectives). When operations stay pending with zero progress
// for a full timeout window, the watchdog compiles a StallReport naming
// every pending operation and aborts the world with it.
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

// sharedProgress is implemented by transports whose pending-op view spans
// other processes (shmem): pendingOps there reports endpoints whose owning
// ranks live in peer processes, so the stall predicate must also see those
// peers' progress. The transport keeps one world-wide counter in shared
// memory; every process ticks it and every process's watchdog samples it.
type sharedProgress interface {
	progressTickShared()
	progressShared() int64
}

// progressTick records one completed operation for stall detection. The
// shared tick is unconditional: this process may run without a watchdog
// while a peer process's watchdog depends on seeing our progress.
func (w *World) progressTick() {
	if wd := w.wdog; wd != nil {
		wd.progress.Add(1)
	}
	if sp := w.sprog; sp != nil {
		sp.progressTickShared()
	}
}

// progressNow samples the stall-detection counter: local ticks plus the
// transport's shared counter when one exists. Both are monotonic, so the
// sum changes exactly when any attached process completes an operation.
func (w *World) progressNow(wd *watchdog) int64 {
	p := wd.progress.Load()
	if sp := w.sprog; sp != nil {
		p += sp.progressShared()
	}
	return p
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
	n := w.tr.pendingCount()
	if rs := w.recov; rs != nil {
		n += len(rs.parkedRanks())
	}
	return n
}

// PendingOp is one stalled operation in a StallReport. Src/Dst/Tag are -1
// for wildcard receives (AnySource/AnyTag).
type PendingOp struct {
	// Kind classifies the operation:
	//
	//	recv-posted     a posted Irecv no send has matched
	//	send-unmatched  an Isend sitting in the destination inbox with no
	//	                matching receive posted (the unexpected-message queue)
	//	psend-unpaired  a persistent send endpoint whose RecvInit never
	//	                registered (the classic mismatched-tag plan bug)
	//	precv-unpaired  a persistent receive endpoint whose SendInit never
	//	                registered
	//	psend-active    a started persistent send whose peer has not started
	//	psend-partial   a started partitioned send with partitions not yet
	//	                marked ready (Unready names them) — the producing
	//	                tiles never fired Pready
	//	precv-active    a started persistent receive whose peer has not started
	//	recovery-parked a rank parked at the RunRecoverable recovery barrier
	//	                awaiting a respawn/give-up verdict (Src is the rank)
	Kind       string `json:"kind"`
	Src        int    `json:"src"`
	Dst        int    `json:"dst"`
	Tag        int    `json:"tag"`
	Bytes      int64  `json:"bytes"`
	Persistent bool   `json:"persistent"`
	// Partitions/Ready/Unready describe a partitioned persistent send:
	// total partition count, how many are ready, and the indices still
	// unready (psend-partial only).
	Partitions int   `json:"partitions,omitempty"`
	Ready      int   `json:"ready,omitempty"`
	Unready    []int `json:"unready,omitempty"`
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
	// Barrier/Reduce/Gather count ranks parked in each collective;
	// Recovery counts ranks parked at the recovery barrier.
	Barrier  int `json:"barrier"`
	Reduce   int `json:"reduce"`
	Gather   int `json:"gather"`
	Recovery int `json:"recovery"`
	// Pending lists every stalled operation, sorted by (kind, src, dst, tag).
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
	rep := &StallReport{Size: w.size, Transport: w.tr.name()}
	rep.Pending = append(rep.Pending, w.tr.pendingOps()...)
	rep.Barrier, rep.Reduce, rep.Gather = w.tr.collectiveWaiters()
	if rs := w.recov; rs != nil {
		parked := rs.parkedRanks()
		rep.Recovery = len(parked)
		for _, r := range parked {
			rep.Pending = append(rep.Pending, PendingOp{
				Kind: "recovery-parked", Src: r, Dst: -1, Tag: -1,
			})
		}
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
		if op.Kind == "psend-partial" {
			fmt.Fprintf(&b, " parts=%d/%d unready=%v", op.Ready, op.Partitions, op.Unready)
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
