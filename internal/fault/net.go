package fault

import "time"

// Network-level fault kinds, consulted by connection-oriented transports
// (tcp) once per outbound data frame. Frame ordinals are deterministic
// program points exactly like send ordinals: the rank's Nth frame is the
// same frame in every run of the same program, so drop/dup/partition
// clauses reproduce bit-identically. A frame is a one-shot message or a
// persistent span on the wire; a rank's persistent channels to itself move
// in memory, have no frames, and are never counted.
const (
	// KindNetDrop silently discards the rank's Nth outbound frame after
	// the wire sequence was assigned, so the receiver observes a sequence
	// gap and fails loud (lost-frame abort) instead of hanging.
	KindNetDrop Kind = "netdrop"
	// KindNetDup writes the rank's Nth outbound frame twice; the receiver
	// must recognise the replayed wire sequence and drop the duplicate
	// (exactly-once delivery).
	KindNetDup Kind = "netdup"
	// KindNetDelay sleeps before every outbound frame of the rank: mean
	// duration ± jitter, from the rank's deterministic PRNG.
	KindNetDelay Kind = "netdelay"
	// KindNetPartition severs the established connection to one peer just
	// before the rank's Nth frame to that peer and holds the link down for
	// a duration; the transport must redial (backoff budget) and the frame
	// must still arrive exactly once.
	KindNetPartition Kind = "netpartition"
)

// netDropClause / netDupClause: act on the rank's nth outbound frame
// (1-based, counted across all peers).
type netDropClause struct {
	rank int
	nth  int64
	dup  bool // duplicate instead of drop
}

// netDelayClause: per-frame delay with jitter.
type netDelayClause struct {
	rank   int
	mean   time.Duration
	jitter float64
}

// netPartClause: sever the rank→peer link before the rank's nth frame to
// that peer (1-based, counted per pair) and hold it down for dur.
type netPartClause struct {
	rank, peer int
	nth        int64
	dur        time.Duration
}

// netPairKey counts frames per directed (rank, peer) pair for partition
// matching.
type netPairKey struct{ rank, peer int }

// NetVerdict is the injector's ruling on one outbound frame. Zero value:
// deliver normally. Order of application at the transport: Delay sleep,
// Partition (sever + hold-down), then Drop or Dup.
type NetVerdict struct {
	Drop      bool
	Dup       bool
	Delay     time.Duration
	Partition time.Duration
}

// HasNetFaults reports whether any frame-layer clause is present. These
// clauses act below message matching, so only connection-oriented
// transports (tcp) consult them; drivers use this to reject the spec on
// chan/shmem worlds where it would silently do nothing.
func (in *Injector) HasNetFaults() bool {
	return in != nil && len(in.netDrops)+len(in.netDelays)+len(in.netParts) > 0
}

// NetFrame decides the fate of the rank's next outbound frame to peer,
// advancing the rank's frame ordinal (and the rank→peer pair ordinal).
// The transport calls it once per data frame, after assigning the wire
// sequence, so a dropped frame still consumes a sequence number and the
// receiver detects the loss. Nil-safe; returns the zero verdict on the
// hot path when nothing is configured.
func (in *Injector) NetFrame(rank, peer int) NetVerdict {
	var v NetVerdict
	if in == nil {
		return v
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.netDrops)+len(in.netDelays)+len(in.netParts) == 0 {
		return v
	}
	in.netFrames[rank]++
	nth := in.netFrames[rank]
	pk := netPairKey{rank, peer}
	in.netPairFrames[pk]++
	pairNth := in.netPairFrames[pk]
	for _, c := range in.netDrops {
		if !matchRank(c.rank, rank) || c.nth != nth {
			continue
		}
		if c.dup {
			v.Dup = true
			in.countLocked(KindNetDup, rank)
		} else {
			v.Drop = true
			in.countLocked(KindNetDrop, rank)
		}
	}
	for _, c := range in.netDelays {
		if !matchRank(c.rank, rank) {
			continue
		}
		d := c.mean
		if c.jitter > 0 {
			f := 1 + c.jitter*(2*in.rngLocked(rank).Float64()-1)
			d = time.Duration(float64(d) * f)
		}
		if d > 0 {
			v.Delay += d
			in.countLocked(KindNetDelay, rank)
		}
	}
	for _, c := range in.netParts {
		if matchRank(c.rank, rank) && matchRank(c.peer, peer) && c.nth == pairNth {
			v.Partition += c.dur
			in.countLocked(KindNetPartition, rank)
		}
	}
	return v
}

// WithNetDrop adds a frame-drop clause at the rank's nth outbound frame
// (1-based, counted across all peers).
func (in *Injector) WithNetDrop(rank int, nth int64) *Injector {
	in.netDrops = append(in.netDrops, netDropClause{rank: rank, nth: nth})
	return in
}

// WithNetDup adds a frame-duplication clause at the rank's nth outbound
// frame (1-based, counted across all peers).
func (in *Injector) WithNetDup(rank int, nth int64) *Injector {
	in.netDrops = append(in.netDrops, netDropClause{rank: rank, nth: nth, dup: true})
	return in
}

// WithNetDelay adds a per-frame delay clause (±jitter fraction of mean).
func (in *Injector) WithNetDelay(rank int, mean time.Duration, jitter float64) *Injector {
	in.netDelays = append(in.netDelays, netDelayClause{rank: rank, mean: mean, jitter: jitter})
	return in
}

// WithNetPartition adds a link-sever clause before the rank's nth frame
// to peer (1-based, counted per directed pair), holding the link down for
// dur before the transport may redial.
func (in *Injector) WithNetPartition(rank, peer int, nth int64, dur time.Duration) *Injector {
	in.netParts = append(in.netParts, netPartClause{rank: rank, peer: peer, nth: nth, dur: dur})
	return in
}
