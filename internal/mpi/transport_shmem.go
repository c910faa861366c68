package mpi

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/shmem"
)

// The shmem backend moves the whole wire protocol onto one shared-memory
// segment (internal/shmem arena), so the ranks of a world may live in
// separate worker processes: the supervisor creates the segment, workers
// inherit its fd and attach (AttachShmemWorld), and every message, staged
// persistent cycle, partitioned-readiness word, and collective rendezvous
// lives in the segment where all processes can reach it.
//
// Layout (all offsets 8-aligned; fixed regions first, bump heap last):
//
//	header      magic, size, abort words, heap bump pointer, collective words
//	reduce      per-rank length words + per-rank slots + combined-out slot
//	gather      per-rank length words + per-rank slots
//	persistent  fixed table of endpoint entries (matching + cycle state)
//	rings       per-rank MPSC message rings (one-shot traffic)
//	heap        bump-allocated payload blocks, staging buffers, flip lists
//
// Protocol differences from the chan backend, deliberate and documented in
// docs/transports.md: one-shot sends are EAGER (the payload is staged in
// the heap at post; Wait on the send completes immediately) and persistent
// sends are eager-staged with double-buffered staging, because a remote
// receive buffer is an ordinary Go slice in another process — only its
// owner can fill it, so rendezvous-style "whoever matches second copies"
// cannot work across processes. Reductions still combine in ascending rank
// order, which is what keeps checksums Float64bits-identical to chan.
//
// All cross-process waits are polling loops (spinner) that watch both the
// local abort channel and the segment's abort words, so a world-wide abort
// published by any process unblocks every rank in every process.

const (
	shmMagic       = 0x627269636b736831 // "bricksh1"
	shmRingSlots   = 1024               // one-shot messages in flight per rank
	shmMaxPers     = 1024               // persistent endpoint table capacity
	shmCollFloats  = 1 << 15            // per-rank collective slot (float64s)
	shmAbortMsgCap = 256                // abort cause rendering, truncated
)

// Header word offsets (bytes from segment base).
const (
	offMagic       = 0
	offSize        = 8
	offAbortClaim  = 16 // CAS-claimed by the first process to publish an abort
	offAbortState  = 24 // 1 once rank+msg are readable
	offAbortRank   = 32
	offAbortMsgLen = 40
	offHeapNext    = 48 // bump pointer (byte offset, atomic)
	offHeapLimit   = 56
	offBarGen      = 64 // barrier generation + arrival count
	offBarCount    = 72
	offRedArrived  = 80 // reducer two-phase words
	offRedLeft     = 88
	offGathArrived = 96 // gather two-phase words
	offGathLeft    = 104
	offPersLock    = 112 // spinlock over the persistent table
	offPersCount   = 120
	offAbortMsg    = 128
	// offProgress is the world-wide progress counter: every completed wait,
	// barrier passage, and collective in ANY attached process ticks it. Each
	// process's watchdog samples it alongside its local counter, so a worker
	// computing quietly while its peers move data is not misread as a stall.
	offProgress = offAbortMsg + shmAbortMsgCap
	// Recovery round words (see recovery_shmem.go): the supervisor runs
	// cross-process recovery rounds against these. offRecGen is the round
	// generation — parked workers spin until it moves; offRecVerdict holds
	// the round's verdict (shmVerdictResume/shmVerdictGiveUp) and
	// offRecStep the checkpoint step to restore, encoded as step+1 so the
	// zero word means "no checkpoint, restart from scratch".
	offRecGen     = offProgress + 8
	offRecVerdict = offProgress + 16
	offRecStep    = offProgress + 24
	shmHdrBytes   = offRecStep + 8
)

// Recovery round verdicts published at offRecVerdict.
const (
	shmVerdictResume = 1
	shmVerdictGiveUp = 2
)

// Persistent-table entry word indices. One entry is one matched (or
// half-registered) SendInit/RecvInit pair — the cross-process pchan.
const (
	peSrc = iota
	peDst
	peTag
	peSendReg // 1 once the send side registered
	peRecvReg // 1 once the recv side registered
	peSendFreed
	peRecvFreed
	peDead // excluded from matching and leak accounting
	peSendElems
	peRecvElems
	peStageCap // staging slot capacity, elems
	peStage0   // heap offsets of the two staging slots
	peStage1
	peElems0 // payload length staged in each slot's current cycle
	peElems1
	peFlipsOff0 // per-slot injected-corruption list (heap offset + count)
	peFlipsOff1
	peFlipsCnt0
	peFlipsCnt1
	peCrc0 // per-slot payload CRC (when the sender's world verifies)
	peCrc1
	peSeqW0 // per-slot flight sequence stamp
	peSeqW1
	peSendSeq   // last fully published send cycle (non-partitioned)
	peDoneSeq   // last cycle the receiver consumed
	peSendStart // last cycle the send side Started (stall reporting)
	peRecvStart // last cycle the recv side Started (stall reporting)
	peNParts    // partition count, 0 when unpartitioned
	peBounds    // heap offset of the P+1 element bounds
	peReady     // heap offset of P readyCycle words (value = cycle number)
	peWords
)

func init() {
	RegisterTransport("shmem",
		"every rank a worker process over a shared-memory segment (memfd + mmap)",
		newShmemWorldTransport)
}

// shmSegmentBytes is the segment size: 256 MiB sparse by default (pages
// commit on touch), overridable with BRICK_SHMEM_BYTES.
func shmSegmentBytes() int {
	if s := os.Getenv("BRICK_SHMEM_BYTES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 256 << 20
}

func newShmemWorldTransport(w *World) (Transport, error) {
	arena, err := shmem.NewArena(shmSegmentBytes())
	if err != nil {
		return nil, err
	}
	t, err := newShmemTransport(w, arena, true)
	if err != nil {
		arena.Close()
		return nil, err
	}
	return t, nil
}

// shmLayout is the segment map, derived deterministically from the world
// size so every attaching process computes identical offsets.
type shmLayout struct {
	size      int
	redLens   int // size length words
	redSlots  int // size * shmCollFloats float64s
	redOutLen int
	redOut    int // shmCollFloats float64s
	gathLens  int
	gathSlots int
	incs      int // per-rank incarnation words
	parked    int // per-rank recovery-parked words
	pers      int // shmMaxPers * peWords words
	ringBytes int
	rings     int // size rings
	heap      int
	heapEnd   int
}

func shmLayoutFor(size, segBytes int) (shmLayout, error) {
	l := shmLayout{size: size}
	off := shmHdrBytes
	l.redLens = off
	off += size * 8
	l.redSlots = off
	off += size * shmCollFloats * 8
	l.redOutLen = off
	off += 8
	l.redOut = off
	off += shmCollFloats * 8
	l.gathLens = off
	off += size * 8
	l.gathSlots = off
	off += size * shmCollFloats * 8
	l.incs = off
	off += size * 8
	l.parked = off
	off += size * 8
	l.pers = off
	off += shmMaxPers * peWords * 8
	l.ringBytes = 16 + shmRingSlots*16
	l.rings = off
	off += size * l.ringBytes
	l.heap = off
	l.heapEnd = segBytes
	if l.heapEnd-l.heap < 1<<20 {
		return l, fmt.Errorf("segment of %d bytes too small for %d ranks (need %d + heap); raise BRICK_SHMEM_BYTES",
			segBytes, size, l.heap)
	}
	return l, nil
}

// shmMsg is the process-local header of one drained one-shot message; the
// payload stays in the segment heap until matched.
type shmMsg struct {
	src, tag, elems int
	off             int // heap offset of the payload floats
	seq             uint64
	crc             uint64
	inc             uint64 // sender's incarnation at post (stale after respawn)
	flipsOff        int
	flipsCnt        int
}

// shmInbox is one rank's process-local matching state: messages drained
// from the rank's ring but not yet matched, and the receives posted by
// this process that no message has matched.
type shmInbox struct {
	mu        sync.Mutex
	unmatched []shmMsg
	posted    map[*shmRecv]struct{}
}

type shmemTransport struct {
	w     *World
	arena *shmem.Arena
	b     []byte // 8-aligned window over the segment
	l     shmLayout
	inbox []shmInbox

	closeOnce sync.Once
	closeErr  error
}

func newShmemTransport(w *World, arena *shmem.Arena, initialize bool) (*shmemTransport, error) {
	b := arena.Bytes()
	if pad := int(uintptr(unsafe.Pointer(&b[0])) % 8); pad != 0 {
		b = b[8-pad:]
	}
	var size int
	if initialize {
		size = w.size
	} else {
		base := (*uint64)(unsafe.Pointer(&b[offMagic]))
		if atomic.LoadUint64(base) != shmMagic {
			return nil, fmt.Errorf("segment has no shmem-world header (bad magic)")
		}
		size = int(*(*uint64)(unsafe.Pointer(&b[offSize])))
		if w.size != 0 && w.size != size {
			return nil, fmt.Errorf("segment world size %d != expected %d", size, w.size)
		}
		w.size = size
	}
	l, err := shmLayoutFor(size, len(b))
	if err != nil {
		return nil, err
	}
	t := &shmemTransport{w: w, arena: arena, b: b, l: l}
	t.inbox = make([]shmInbox, size)
	for i := range t.inbox {
		t.inbox[i].posted = map[*shmRecv]struct{}{}
	}
	if initialize {
		*t.w64(offSize) = uint64(size)
		*t.w64(offHeapNext) = uint64(l.heap)
		*t.w64(offHeapLimit) = uint64(l.heapEnd)
		// Ring slots carry Vyukov sequence numbers: slot i starts at i.
		for r := 0; r < size; r++ {
			base := l.rings + r*l.ringBytes
			for i := 0; i < shmRingSlots; i++ {
				*t.w64(base + 16 + i*16) = uint64(i)
			}
		}
		// Publish the magic last: an attaching worker that maps a segment
		// mid-initialization must not see a valid header over garbage.
		atomic.StoreUint64(t.w64(offMagic), shmMagic)
	}
	return t, nil
}

func (t *shmemTransport) name() string { return "shmem" }

// w64 returns the segment word at the byte offset, for sync/atomic access.
func (t *shmemTransport) w64(off int) *uint64 {
	return (*uint64)(unsafe.Pointer(&t.b[off]))
}

// floats aliases a float64 window over the segment.
func (t *shmemTransport) floats(off, n int) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&t.b[off])), n)
}

// alloc bump-allocates n bytes from the segment heap (8-aligned, never
// freed — the segment lives for one world). Panics on exhaustion: every
// caller is on a path where an error cannot be surfaced, and a bigger
// segment is one env var away.
func (t *shmemTransport) alloc(n int) int {
	n = (n + 7) &^ 7
	off := atomic.AddUint64(t.w64(offHeapNext), uint64(n))
	if off > atomic.LoadUint64(t.w64(offHeapLimit)) {
		panic(fmt.Sprintf("mpi: shmem segment heap exhausted (%d-byte segment; raise BRICK_SHMEM_BYTES)",
			t.l.heapEnd))
	}
	return int(off) - n
}

// spinner is the polling backoff for cross-process waits: busy first,
// then yield, then sleep — latency for short waits, negligible CPU for
// long ones. The yield phase hands the processor to other goroutines and
// other processes (so oversubscribed ranks make progress) and lasts a
// millisecond or two, longer than a peer's share of a step: a timer sleep
// costs whatever the host takes to wake an idle CPU (measured 33 µs to
// 633 µs for the same 5 µs sleep), which a step must not depend on.
type spinner struct{ n int }

func (s *spinner) spin() {
	s.n++
	switch {
	case s.n < 64:
	case s.n < 4096:
		runtime.Gosched()
		shmem.Yield()
	default:
		time.Sleep(5 * time.Microsecond)
	}
}

// RemoteAbort is the abort cause observed by a process whose peer aborted
// the shared world: the original value lives in the peer, only its
// rendering crosses the segment.
type RemoteAbort struct{ Msg string }

func (e *RemoteAbort) Error() string { return e.Msg }

// checkAbort reports the world's abort error, adopting a peer process's
// published abort into the local world first if needed. Every polling
// wait calls it each iteration.
func (t *shmemTransport) checkAbort() *AbortError {
	if ae := t.w.Aborted(); ae != nil {
		return ae
	}
	if atomic.LoadUint64(t.w64(offAbortState)) != 0 {
		rank := int(int64(atomic.LoadUint64(t.w64(offAbortRank))))
		n := int(atomic.LoadUint64(t.w64(offAbortMsgLen)))
		msg := string(t.b[offAbortMsg : offAbortMsg+n])
		t.w.abort(rank, &RemoteAbort{Msg: msg})
		return t.w.Aborted()
	}
	return nil
}

// abortAll publishes the local abort into the segment (first process
// wins) so peer processes' polling waits unwind too. Local collective
// waiters are polling loops that observe the local abort directly.
func (t *shmemTransport) abortAll() {
	if !atomic.CompareAndSwapUint64(t.w64(offAbortClaim), 0, 1) {
		return
	}
	rank, msg := WatchdogRank, "abort with unrecorded cause"
	if ae := t.w.Aborted(); ae != nil {
		// A remote-adopted abort carries the peer's rendering already;
		// re-publishing is idempotent because the claim word was ours.
		rank, msg = ae.Rank, ae.Error()
	}
	if len(msg) > shmAbortMsgCap {
		msg = msg[:shmAbortMsgCap]
	}
	copy(t.b[offAbortMsg:], msg)
	atomic.StoreUint64(t.w64(offAbortMsgLen), uint64(len(msg)))
	atomic.StoreUint64(t.w64(offAbortRank), uint64(int64(rank)))
	atomic.StoreUint64(t.w64(offAbortState), 1)
}

// ShmemFile returns the file backing a shmem world's segment, for
// inheritance by worker processes (os/exec ExtraFiles), or nil when the
// world is not on the shmem transport or the arena fell back to the heap
// (in which case cross-process operation is impossible).
func (w *World) ShmemFile() *os.File {
	if t, ok := w.tr.(*shmemTransport); ok {
		return t.arena.File()
	}
	return nil
}

// ShmemAbort reads the segment's published abort cause: the supervisor
// uses it to report why a worker-process world died even when the local
// process never ran a rank. ok is false while no abort is published or
// the world is not on shmem.
func (w *World) ShmemAbort() (rank int, msg string, ok bool) {
	t, isShmem := w.tr.(*shmemTransport)
	if !isShmem {
		return 0, "", false
	}
	return t.publishedAbort()
}

// AttachShmemWorld maps an existing shmem-world segment — inherited from
// the supervisor as an open file — and returns the world it describes.
// The caller (a worker process) then runs exactly one rank with
// World.RunRank. The world's size comes from the segment header.
func AttachShmemWorld(f *os.File) (*World, error) {
	arena, err := shmem.OpenArenaFile(f)
	if err != nil {
		return nil, err
	}
	w := &World{abortCh: make(chan struct{})}
	t, err := newShmemTransport(w, arena, false)
	if err != nil {
		arena.Close()
		return nil, fmt.Errorf("mpi: attaching shmem world: %w", err)
	}
	w.tr = t
	w.sprog = t
	return w, nil
}

// progressTickShared / progressShared are the sharedProgress hook: one
// monotonic counter in the segment header that every attached process
// ticks, so each process's watchdog sees world-wide progress.
func (t *shmemTransport) progressTickShared() {
	atomic.AddUint64(t.w64(offProgress), 1)
}

func (t *shmemTransport) progressShared() int64 {
	return int64(atomic.LoadUint64(t.w64(offProgress)))
}

// incarnationOf reads rank's incarnation word: bumped by quarantine for
// every dead rank, so a respawned worker self-identifies and pre-crash
// deliveries are discarded at drain.
func (t *shmemTransport) incarnationOf(rank int) uint64 {
	return atomic.LoadUint64(t.w64(t.l.incs + rank*8))
}

// resetLocal clears this process's matching state — drained-but-unmatched
// messages and posted receives stranded by an abort. Each attached process
// must clear its own view before re-entering a respawned world; quarantine
// only reaches the shared segment.
func (t *shmemTransport) resetLocal() {
	for r := range t.inbox {
		ib := &t.inbox[r]
		ib.mu.Lock()
		ib.unmatched = nil
		ib.posted = map[*shmRecv]struct{}{}
		ib.mu.Unlock()
	}
}

// quarantine re-seeds the segment's shared wire state for a new epoch. The
// caller must guarantee quiescence: every rank parked, exited, or dead —
// the supervisor's convergence wait (internal/mpi/proc) or Respawn's
// contract establishes it. Rings are drained and re-sequenced, the
// persistent-endpoint table and collective words cleared (the new epoch
// re-pairs from scratch; FIFO pairing only holds if everyone starts
// empty), and the heap bump pointer rewinds to its base — every staged
// payload belonged to the dead epoch. Dead ranks get their incarnation
// bumped so any block a crashed sender already published is discarded at
// drain, and the checkpoint step the new epoch restores from is published
// at offRecStep. Monotonic shared words (progress, recovery generation)
// and live ranks' incarnations are preserved.
func (t *shmemTransport) quarantine(dead []int, restoreStep int) {
	l := t.l
	// Abort words last published win; the new epoch fails loud on its own.
	atomic.StoreUint64(t.w64(offAbortState), 0)
	atomic.StoreUint64(t.w64(offAbortRank), 0)
	atomic.StoreUint64(t.w64(offAbortMsgLen), 0)
	atomic.StoreUint64(t.w64(offAbortClaim), 0)
	// Collective seats.
	atomic.StoreUint64(t.w64(offBarGen), 0)
	atomic.StoreUint64(t.w64(offBarCount), 0)
	atomic.StoreUint64(t.w64(offRedArrived), 0)
	atomic.StoreUint64(t.w64(offRedLeft), 0)
	atomic.StoreUint64(t.w64(offGathArrived), 0)
	atomic.StoreUint64(t.w64(offGathLeft), 0)
	atomic.StoreUint64(t.w64(l.redOutLen), 0)
	// Persistent endpoint table, including staging-slot metadata.
	cnt := int(atomic.LoadUint64(t.w64(offPersCount)))
	if cnt > shmMaxPers {
		cnt = shmMaxPers
	}
	for i := 0; i < cnt*peWords; i++ {
		atomic.StoreUint64(t.w64(l.pers+i*8), 0)
	}
	atomic.StoreUint64(t.w64(offPersCount), 0)
	atomic.StoreUint64(t.w64(offPersLock), 0)
	// Rings: drop in-flight one-shot traffic, restore Vyukov slot seeding.
	for r := 0; r < l.size; r++ {
		base := l.rings + r*l.ringBytes
		atomic.StoreUint64(t.w64(base), 0)
		atomic.StoreUint64(t.w64(base+8), 0)
		for i := 0; i < shmRingSlots; i++ {
			atomic.StoreUint64(t.w64(base+16+i*16), uint64(i))
		}
	}
	atomic.StoreUint64(t.w64(offHeapNext), uint64(l.heap))
	for _, r := range dead {
		atomic.AddUint64(t.w64(l.incs+r*8), 1)
	}
	for r := 0; r < l.size; r++ {
		atomic.StoreUint64(t.w64(l.parked+r*8), 0)
	}
	atomic.StoreUint64(t.w64(offRecStep), uint64(restoreStep+1))
}

func (t *shmemTransport) reset() error {
	t.quarantine(nil, -1)
	t.resetLocal()
	return nil
}

func (t *shmemTransport) close() error {
	t.closeOnce.Do(func() { t.closeErr = t.arena.Close() })
	return t.closeErr
}

// ---- one-shot messages: per-rank MPSC rings over heap payload blocks ----

// One-shot message block layout in the heap (words): src, tag, elems, seq,
// flipsCnt, crc, sender incarnation, then the payload floats, then
// flipsCnt (off, mask) pairs.
const shmMsgHdr = 56

// ringPush publishes a message block to dst's ring (Vyukov MPSC: producers
// claim tickets by CAS on head, the single consumer frees slots in order).
// A full ring means the receiving process is not draining — the sender
// polls, and the watchdog owns the diagnosis if it never does.
func (t *shmemTransport) ringPush(dst int, msgOff int) {
	base := t.l.rings + dst*t.l.ringBytes
	head := t.w64(base)
	var sp spinner
	for {
		h := atomic.LoadUint64(head)
		slot := base + 16 + int(h%shmRingSlots)*16
		seqp := t.w64(slot)
		if atomic.LoadUint64(seqp) == h {
			if atomic.CompareAndSwapUint64(head, h, h+1) {
				atomic.StoreUint64(t.w64(slot+8), uint64(msgOff))
				atomic.StoreUint64(seqp, h+1)
				return
			}
			continue
		}
		if ae := t.checkAbort(); ae != nil {
			panic(ae)
		}
		sp.spin()
	}
}

// drain moves every published message from rank's ring into its local
// unmatched list, preserving ring order (which preserves per-sender FIFO).
// Caller holds the rank's inbox mutex — the single-consumer invariant.
func (t *shmemTransport) drain(rank int) {
	base := t.l.rings + rank*t.l.ringBytes
	tail := t.w64(base + 8)
	ib := &t.inbox[rank]
	for {
		tl := atomic.LoadUint64(tail)
		slot := base + 16 + int(tl%shmRingSlots)*16
		seqp := t.w64(slot)
		if atomic.LoadUint64(seqp) != tl+1 {
			return
		}
		off := int(atomic.LoadUint64(t.w64(slot + 8)))
		m := t.readMsg(off)
		// Drop deliveries from a previous incarnation of the sender: a rank
		// respawned after a crash must not have its pre-crash traffic matched
		// against post-restore receives.
		if m.inc == t.incarnationOf(m.src) {
			ib.unmatched = append(ib.unmatched, m)
		}
		atomic.StoreUint64(seqp, tl+shmRingSlots)
		atomic.StoreUint64(tail, tl+1)
	}
}

func (t *shmemTransport) readMsg(off int) shmMsg {
	m := shmMsg{
		src:      int(int64(*t.w64(off))),
		tag:      int(int64(*t.w64(off + 8))),
		elems:    int(*t.w64(off + 16)),
		seq:      *t.w64(off + 24),
		flipsCnt: int(*t.w64(off + 32)),
		crc:      *t.w64(off + 40),
		inc:      *t.w64(off + 48),
		off:      off + shmMsgHdr,
	}
	m.flipsOff = m.off + 8*m.elems
	return m
}

// readFlips reconstructs a sender's injected-corruption list.
func (t *shmemTransport) readFlips(off, cnt int) []fault.ByteFlip {
	if cnt == 0 {
		return nil
	}
	flips := make([]fault.ByteFlip, cnt)
	for i := range flips {
		flips[i] = fault.ByteFlip{
			Off:  int(*t.w64(off + 16*i)),
			Mask: byte(*t.w64(off + 16*i + 8)),
		}
	}
	return flips
}

// writeFlips stages a corruption list in the heap; returns (offset, count).
func (t *shmemTransport) writeFlips(flips []fault.ByteFlip) (int, int) {
	if len(flips) == 0 {
		return 0, 0
	}
	off := t.alloc(16 * len(flips))
	for i, f := range flips {
		*t.w64(off + 16*i) = uint64(f.Off)
		*t.w64(off + 16*i + 8) = uint64(f.Mask)
	}
	return off, len(flips)
}

func (t *shmemTransport) isend(c *Comm, dst, tag int, buf []float64, flips []fault.ByteFlip, seq uint64) *Request {
	off := t.alloc(shmMsgHdr + 8*len(buf) + 16*len(flips))
	*t.w64(off) = uint64(int64(c.rank))
	*t.w64(off + 8) = uint64(int64(tag))
	*t.w64(off + 16) = uint64(len(buf))
	*t.w64(off + 24) = seq
	*t.w64(off + 32) = uint64(len(flips))
	if t.w.verifyCRC {
		*t.w64(off + 40) = uint64(crcFloats(buf))
	}
	*t.w64(off + 48) = t.incarnationOf(c.rank)
	copy(t.floats(off+shmMsgHdr, len(buf)), buf)
	for i, f := range flips {
		*t.w64(off + shmMsgHdr + 8*len(buf) + 16*i) = uint64(f.Off)
		*t.w64(off + shmMsgHdr + 8*len(buf) + 16*i + 8) = uint64(f.Mask)
	}
	t.ringPush(dst, off)
	if m := c.m; m != nil {
		// Eager delivery: the send's wire leg completes at post.
		m.sendSeconds.Observe(0)
	}
	return &Request{comm: c, op: shmSendDone{t}, peer: dst, tag: tag}
}

func (t *shmemTransport) irecv(c *Comm, src, tag int, buf []float64) *Request {
	p := &shmRecv{t: t, rank: c.rank, src: src, tag: tag, buf: buf, post: time.Now()}
	ib := &t.inbox[c.rank]
	ib.mu.Lock()
	ib.posted[p] = struct{}{}
	ib.mu.Unlock()
	return &Request{comm: c, op: p, peer: src, tag: tag}
}

// shmSendDone is the eager send's op: complete at post.
type shmSendDone struct{ t *shmemTransport }

func (s shmSendDone) block(r *Request) {
	if ae := s.t.checkAbort(); ae != nil {
		panic(ae)
	}
}

func (s shmSendDone) blockTimeout(r *Request, d time.Duration) error {
	if ae := s.t.checkAbort(); ae != nil {
		return ae
	}
	return nil
}

func (s shmSendDone) finish(r *Request) int {
	r.comm.world.progressTick()
	return 0
}

func (s shmSendDone) opName(r *Request) string {
	return fmt.Sprintf("wait send dst=%d tag=%d", r.peer, r.tag)
}

// shmRecv is a posted one-shot receive: Wait polls the rank's ring for a
// matching message and performs the delivery copy locally (only this
// process can reach buf).
type shmRecv struct {
	t         *shmemTransport
	rank      int
	src, tag  int
	buf       []float64
	post      time.Time
	matched   bool
	n         int
	corrupted *CorruptionError
}

// tryMatch drains the ring and scans the unmatched list oldest-first; on a
// match it performs the delivery copy and bookkeeping.
func (p *shmRecv) tryMatch(r *Request) bool {
	ib := &p.t.inbox[p.rank]
	ib.mu.Lock()
	p.t.drain(p.rank)
	for i, m := range ib.unmatched {
		if (p.src == AnySource || p.src == m.src) && (p.tag == AnyTag || p.tag == m.tag) {
			ib.unmatched = append(ib.unmatched[:i], ib.unmatched[i+1:]...)
			delete(ib.posted, p)
			ib.mu.Unlock()
			p.deliver(r, m)
			return true
		}
	}
	ib.mu.Unlock()
	return false
}

func (p *shmRecv) deliver(r *Request, m shmMsg) {
	t := p.t
	overflow := m.elems > len(p.buf)
	n := m.elems
	if overflow {
		n = len(p.buf)
	}
	copy(p.buf[:n], t.floats(m.off, m.elems))
	if m.flipsCnt > 0 {
		applyFlips(p.buf[:n], t.readFlips(m.flipsOff, m.flipsCnt))
	}
	corrupt := t.w.verifyCRC && uint64(crcFloats(p.buf[:n])) != m.crc
	if c := r.comm; c != nil {
		if c.m != nil {
			c.m.recvMatchWait.Observe(time.Since(p.post).Seconds())
			c.m.recvBytes.Observe(float64(8 * m.elems))
		}
		c.fl.Deliver(int32(m.src), int32(m.tag), -1, int64(8*m.elems), m.seq)
	}
	p.n = m.elems
	p.matched = true
	if overflow {
		panic(fmt.Sprintf("mpi: message overflows receive buffer (src %d tag %d)", m.src, m.tag))
	}
	if corrupt {
		p.corrupted = &CorruptionError{Src: m.src, Dst: p.rank, Tag: m.tag}
	}
}

// raiseCorruption kills the world after a CRC mismatch, mirroring the chan
// backend: delivery completed first, then the world dies.
func (p *shmRecv) raiseCorruption() {
	if p.corrupted == nil {
		return
	}
	w := p.t.w
	w.abort(p.rank, p.corrupted)
	p.corrupted = nil
	panic(w.Aborted())
}

func (p *shmRecv) block(r *Request) {
	if p.matched {
		p.raiseCorruption()
		return
	}
	var sp spinner
	for !p.tryMatch(r) {
		if ae := p.t.checkAbort(); ae != nil {
			panic(ae)
		}
		sp.spin()
	}
	p.raiseCorruption()
}

func (p *shmRecv) blockTimeout(r *Request, d time.Duration) error {
	if p.matched {
		return nil
	}
	deadline := time.Now().Add(d)
	var sp spinner
	for !p.tryMatch(r) {
		if ae := p.t.checkAbort(); ae != nil {
			return ae
		}
		if time.Now().After(deadline) {
			return &TimeoutError{After: d, Op: p.opName(r)}
		}
		sp.spin()
	}
	if p.corrupted != nil {
		w := p.t.w
		w.abort(p.rank, p.corrupted)
		p.corrupted = nil
		return w.Aborted()
	}
	return nil
}

func (p *shmRecv) finish(r *Request) int {
	c := r.comm
	c.world.progressTick()
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(8 * p.n))
	return p.n
}

func (p *shmRecv) opName(r *Request) string {
	return fmt.Sprintf("wait recv src=%s tag=%s", wildcard(p.src), wildcard(p.tag))
}

// ---- collectives: shared-word mirrors of the chan backend protocols ----

func (t *shmemTransport) barrier(rank int) (aborted bool) {
	gen, cnt := t.w64(offBarGen), t.w64(offBarCount)
	g := atomic.LoadUint64(gen)
	if atomic.AddUint64(cnt, 1) == uint64(t.l.size) {
		atomic.StoreUint64(cnt, 0)
		atomic.StoreUint64(gen, g+1)
		return false
	}
	var sp spinner
	for atomic.LoadUint64(gen) == g {
		if t.checkAbort() != nil {
			return true
		}
		sp.spin()
	}
	return false
}

// collWait spins while the shared word matches cond; aborted=true if the
// world dies first.
func (t *shmemTransport) collWait(word *uint64, cond func(uint64) bool) (aborted bool) {
	var sp spinner
	for cond(atomic.LoadUint64(word)) {
		if t.checkAbort() != nil {
			return true
		}
		sp.spin()
	}
	return false
}

func (t *shmemTransport) allreduce(rank int, op Op, in []float64) (out []float64, aborted bool) {
	if len(in) > shmCollFloats {
		panic(fmt.Sprintf("mpi: Allreduce of %d elements exceeds the shmem collective slot (%d)", len(in), shmCollFloats))
	}
	arr, left := t.w64(offRedArrived), t.w64(offRedLeft)
	// Wait for the previous reduction's readers to drain.
	if t.collWait(left, func(v uint64) bool { return v > 0 }) {
		return nil, true
	}
	copy(t.floats(t.l.redSlots+rank*shmCollFloats*8, len(in)), in)
	atomic.StoreUint64(t.w64(t.l.redLens+rank*8), uint64(len(in)))
	if atomic.AddUint64(arr, 1) == uint64(t.l.size) {
		// Last to arrive combines, in ascending rank order — the bit-for-bit
		// determinism contract shared with the chan backend.
		n := int(atomic.LoadUint64(t.w64(t.l.redLens)))
		res := t.floats(t.l.redOut, n)
		copy(res, t.floats(t.l.redSlots, n))
		for rk := 1; rk < t.l.size; rk++ {
			pn := int(atomic.LoadUint64(t.w64(t.l.redLens + rk*8)))
			if pn != n {
				panic(fmt.Sprintf("mpi: Allreduce length mismatch: %d vs %d", pn, n))
			}
			p := t.floats(t.l.redSlots+rk*shmCollFloats*8, n)
			for i, v := range p {
				res[i] = op.apply(res[i], v)
			}
		}
		atomic.StoreUint64(t.w64(t.l.redOutLen), uint64(n))
		atomic.StoreUint64(arr, 0)
		atomic.StoreUint64(left, uint64(t.l.size))
	} else if t.collWait(left, func(v uint64) bool { return v == 0 }) {
		return nil, true
	}
	n := int(atomic.LoadUint64(t.w64(t.l.redOutLen)))
	out = append([]float64(nil), t.floats(t.l.redOut, n)...)
	atomic.AddUint64(left, ^uint64(0))
	return out, false
}

func (t *shmemTransport) gather(rank int, in []float64) (out [][]float64, aborted bool) {
	if len(in) > shmCollFloats {
		panic(fmt.Sprintf("mpi: Gather of %d elements exceeds the shmem collective slot (%d)", len(in), shmCollFloats))
	}
	arr, left := t.w64(offGathArrived), t.w64(offGathLeft)
	if t.collWait(left, func(v uint64) bool { return v > 0 }) {
		return nil, true
	}
	copy(t.floats(t.l.gathSlots+rank*shmCollFloats*8, len(in)), in)
	atomic.StoreUint64(t.w64(t.l.gathLens+rank*8), uint64(len(in)))
	if atomic.AddUint64(arr, 1) == uint64(t.l.size) {
		atomic.StoreUint64(arr, 0)
		atomic.StoreUint64(left, uint64(t.l.size))
	} else if t.collWait(left, func(v uint64) bool { return v == 0 }) {
		return nil, true
	}
	if rank == 0 {
		out = make([][]float64, t.l.size)
		for rk := 0; rk < t.l.size; rk++ {
			n := int(atomic.LoadUint64(t.w64(t.l.gathLens + rk*8)))
			out[rk] = append([]float64(nil), t.floats(t.l.gathSlots+rk*shmCollFloats*8, n)...)
		}
	}
	atomic.AddUint64(left, ^uint64(0))
	return out, false
}

// ---- watchdog and leak-accounting hooks ----

// persEntry returns the byte offset of table entry i.
func (t *shmemTransport) persEntry(i int) int { return t.l.pers + i*peWords*8 }

// pw reads entry word idx of the entry at byte offset e.
func (t *shmemTransport) pw(e, idx int) uint64 { return atomic.LoadUint64(t.w64(e + idx*8)) }

func (t *shmemTransport) setPW(e, idx int, v uint64) { atomic.StoreUint64(t.w64(e+idx*8), v) }

func (t *shmemTransport) persLockAcquire() {
	p := t.w64(offPersLock)
	var sp spinner
	for !atomic.CompareAndSwapUint64(p, 0, 1) {
		sp.spin()
	}
}

func (t *shmemTransport) persLockRelease() { atomic.StoreUint64(t.w64(offPersLock), 0) }

func (t *shmemTransport) pendingCount() int {
	n := 0
	// One-shot traffic published but not yet drained by receivers.
	for r := 0; r < t.l.size; r++ {
		base := t.l.rings + r*t.l.ringBytes
		n += int(atomic.LoadUint64(t.w64(base)) - atomic.LoadUint64(t.w64(base+8)))
	}
	// Drained-but-unmatched messages and posted receives (process-local).
	for r := range t.inbox {
		ib := &t.inbox[r]
		ib.mu.Lock()
		n += len(ib.unmatched) + len(ib.posted)
		ib.mu.Unlock()
	}
	// Persistent endpoints: unpaired or mid-cycle (world-wide, from the
	// shared table).
	cnt := int(atomic.LoadUint64(t.w64(offPersCount)))
	for i := 0; i < cnt && i < shmMaxPers; i++ {
		e := t.persEntry(i)
		if t.pw(e, peDead) != 0 {
			continue
		}
		sreg, rreg := t.pw(e, peSendReg), t.pw(e, peRecvReg)
		if sreg == 0 || rreg == 0 {
			if sreg+rreg > 0 {
				n++
			}
			continue
		}
		done := t.pw(e, peDoneSeq)
		if t.pw(e, peSendStart) > done {
			n++
		}
		if t.pw(e, peRecvStart) > done {
			n++
		}
	}
	// Ranks parked at the cross-process recovery barrier: visible world-wide
	// so no process's watchdog misreads a recovery round as quiescence.
	for r := 0; r < t.l.size; r++ {
		if atomic.LoadUint64(t.w64(t.l.parked+r*8)) != 0 {
			n++
		}
	}
	bar, red, gath := t.collectiveWaiters()
	return n + bar + red + gath
}

func (t *shmemTransport) pendingOps() []PendingOp {
	var ops []PendingOp
	// In-flight ring messages: readable between tail and head because the
	// producer published each slot's sequence before we load it.
	for r := 0; r < t.l.size; r++ {
		base := t.l.rings + r*t.l.ringBytes
		head, tail := atomic.LoadUint64(t.w64(base)), atomic.LoadUint64(t.w64(base+8))
		for s := tail; s < head; s++ {
			slot := base + 16 + int(s%shmRingSlots)*16
			if atomic.LoadUint64(t.w64(slot)) != s+1 {
				continue
			}
			m := t.readMsg(int(atomic.LoadUint64(t.w64(slot + 8))))
			ops = append(ops, PendingOp{
				Kind: "send-unmatched", Src: m.src, Dst: r, Tag: m.tag,
				Bytes: int64(8 * m.elems),
			})
		}
	}
	for r := range t.inbox {
		ib := &t.inbox[r]
		ib.mu.Lock()
		for _, m := range ib.unmatched {
			ops = append(ops, PendingOp{
				Kind: "send-unmatched", Src: m.src, Dst: r, Tag: m.tag,
				Bytes: int64(8 * m.elems),
			})
		}
		for p := range ib.posted {
			ops = append(ops, PendingOp{
				Kind: "recv-posted", Src: p.src, Dst: r, Tag: p.tag,
				Bytes: int64(8 * len(p.buf)),
			})
		}
		ib.mu.Unlock()
	}
	cnt := int(atomic.LoadUint64(t.w64(offPersCount)))
	for i := 0; i < cnt && i < shmMaxPers; i++ {
		e := t.persEntry(i)
		if t.pw(e, peDead) != 0 {
			continue
		}
		src := int(int64(t.pw(e, peSrc)))
		dst := int(int64(t.pw(e, peDst)))
		tag := int(int64(t.pw(e, peTag)))
		sreg, rreg := t.pw(e, peSendReg), t.pw(e, peRecvReg)
		switch {
		case sreg != 0 && rreg == 0:
			ops = append(ops, PendingOp{
				Kind: "psend-unpaired", Src: src, Dst: dst, Tag: tag,
				Bytes: int64(8 * t.pw(e, peSendElems)), Persistent: true,
			})
			continue
		case rreg != 0 && sreg == 0:
			ops = append(ops, PendingOp{
				Kind: "precv-unpaired", Src: src, Dst: dst, Tag: tag,
				Bytes: int64(8 * t.pw(e, peRecvElems)), Persistent: true,
			})
			continue
		case sreg == 0:
			continue
		}
		done := t.pw(e, peDoneSeq)
		if ss := t.pw(e, peSendStart); ss > done {
			op := PendingOp{
				Kind: "psend-active", Src: src, Dst: dst, Tag: tag,
				Bytes: int64(8 * t.pw(e, peSendElems)), Persistent: true,
			}
			if parts := int(t.pw(e, peNParts)); parts > 0 {
				op.Partitions = parts
				ready := int(t.pw(e, peReady))
				for p := 0; p < parts; p++ {
					if atomic.LoadUint64(t.w64(ready+p*8)) == ss {
						op.Ready++
					} else {
						op.Unready = append(op.Unready, p)
					}
				}
				if op.Ready < parts {
					op.Kind = "psend-partial"
				} else {
					op.Unready = nil
				}
			}
			ops = append(ops, op)
		}
		if rs := t.pw(e, peRecvStart); rs > done {
			ops = append(ops, PendingOp{
				Kind: "precv-active", Src: src, Dst: dst, Tag: tag,
				Bytes: int64(8 * t.pw(e, peRecvElems)), Persistent: true,
			})
		}
	}
	for r := 0; r < t.l.size; r++ {
		if atomic.LoadUint64(t.w64(t.l.parked+r*8)) != 0 {
			ops = append(ops, PendingOp{
				Kind: "recovery-parked", Src: r, Dst: -1, Tag: -1,
			})
		}
	}
	return ops
}

func (t *shmemTransport) collectiveWaiters() (bar, red, gath int) {
	bar = int(atomic.LoadUint64(t.w64(offBarCount)))
	red = int(atomic.LoadUint64(t.w64(offRedArrived)) + atomic.LoadUint64(t.w64(offRedLeft)))
	gath = int(atomic.LoadUint64(t.w64(offGathArrived)) + atomic.LoadUint64(t.w64(offGathLeft)))
	return bar, red, gath
}

func (t *shmemTransport) persistentPending() (unmatched, live int) {
	cnt := int(atomic.LoadUint64(t.w64(offPersCount)))
	for i := 0; i < cnt && i < shmMaxPers; i++ {
		e := t.persEntry(i)
		if t.pw(e, peDead) != 0 {
			continue
		}
		sreg, rreg := t.pw(e, peSendReg), t.pw(e, peRecvReg)
		if sreg == 0 && rreg == 0 {
			continue
		}
		live++
		if sreg == 0 || rreg == 0 {
			unmatched++
		}
	}
	return unmatched, live
}

// ---- persistent endpoints: the cross-process pchan ----
//
// A matched SendInit/RecvInit pair is one entry of the shared table. The
// cycle protocol is eager-staged and double-buffered: the sender copies its
// buffer into staging slot cycle%2 and publishes peSendSeq; the receiver
// spins for its cycle's publication, copies staging into its own buffer,
// and publishes peDoneSeq. A sender may run at most one full cycle ahead
// (slot reuse waits for peDoneSeq >= cycle-2), which is exactly the
// pipelining the chan backend's token channels allow. Partitioned sends
// stage per-partition spans at Pready time and stamp the span's readyCycle
// word, so Parrived on the receive side observes partitions early; only
// one partitioned cycle is in flight at a time (readyCycle words hold a
// single cycle number).

// shmPers is one side's process-local handle on a table entry.
type shmPers struct {
	t    *shmemTransport
	e    int // entry byte offset in the segment
	rank int

	mu     sync.Mutex
	buf    []float64
	cycle  uint64 // this side's current cycle (starts at 1)
	active bool
	gone   bool // this side called Free

	// send side
	seq      uint64
	flips    []fault.ByteFlip
	staged   bool
	started  time.Time
	bounds   []int // partitioned send: element offsets
	readyLoc []bool
	copied   []bool
	nready   int
	ncopied  int
	// receive side
	arrived  []bool
	narrived int
	n        int
}

// entryKeyEq reports whether table entry e carries exactly this endpoint
// triple. Caller holds the persistent-table lock.
func (t *shmemTransport) entryKeyEq(e, src, dst, tag int) bool {
	return int(int64(t.pw(e, peSrc))) == src &&
		int(int64(t.pw(e, peDst))) == dst &&
		int(int64(t.pw(e, peTag))) == tag
}

// checkEntrySizes mirrors pchan.checkSizesLocked on the shared entry:
// validate as soon as both sides are known. Caller holds the table lock;
// the panic strings are part of the conformance contract.
func (t *shmemTransport) checkEntrySizes(e int) {
	src := int(int64(t.pw(e, peSrc)))
	dst := int(int64(t.pw(e, peDst)))
	tag := int(int64(t.pw(e, peTag)))
	se, re := int(t.pw(e, peSendElems)), int(t.pw(e, peRecvElems))
	if t.pw(e, peSendReg) != 0 && t.pw(e, peRecvReg) != 0 && se > re {
		t.persLockRelease()
		panic(fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
			src, dst, tag, se, re))
	}
	if p := int(t.pw(e, peNParts)); p > 0 && t.pw(e, peSendReg) != 0 {
		cover := int(t.pw(int(t.pw(e, peBounds))+p*8, 0))
		if cover != se {
			t.persLockRelease()
			panic(fmt.Sprintf("mpi: partitioned send (src %d dst %d tag %d) bounds cover %d elements but the buffer holds %d",
				src, dst, tag, cover, se))
		}
	}
}

// ensureStaging grows the entry's double-buffered staging slots to hold at
// least elems floats. Caller holds the table lock. Old slots are abandoned
// to the bump heap (rebind-growth is rare; the heap is append-only anyway).
func (t *shmemTransport) ensureStaging(e, elems int) {
	if int(t.pw(e, peStageCap)) >= elems {
		return
	}
	t.setPW(e, peStage0, uint64(t.alloc(8*elems)))
	t.setPW(e, peStage1, uint64(t.alloc(8*elems)))
	t.setPW(e, peStageCap, uint64(elems))
}

// matchOrAppend finds the FIFO-first live entry for the triple where the
// peer registered and this side has not, or appends a fresh entry. Returns
// the entry offset with this side registered; table lock held throughout.
func (t *shmemTransport) matchOrAppend(src, dst, tag int, psend bool, elems int) int {
	myReg, peerReg := peSendReg, peRecvReg
	if !psend {
		myReg, peerReg = peRecvReg, peSendReg
	}
	cnt := int(atomic.LoadUint64(t.w64(offPersCount)))
	e := -1
	for i := 0; i < cnt; i++ {
		ei := t.persEntry(i)
		if t.pw(ei, peDead) == 0 && t.entryKeyEq(ei, src, dst, tag) &&
			t.pw(ei, peerReg) != 0 && t.pw(ei, myReg) == 0 {
			e = ei
			break
		}
	}
	if e < 0 {
		if cnt >= shmMaxPers {
			t.persLockRelease()
			panic(fmt.Sprintf("mpi: shmem persistent endpoint table full (%d endpoints)", shmMaxPers))
		}
		e = t.persEntry(cnt)
		t.setPW(e, peSrc, uint64(int64(src)))
		t.setPW(e, peDst, uint64(int64(dst)))
		t.setPW(e, peTag, uint64(int64(tag)))
		// Publish the count only after the key words are readable: lock-free
		// scanners (the watchdog) load count first.
		atomic.StoreUint64(t.w64(offPersCount), uint64(cnt+1))
	}
	if psend {
		t.setPW(e, peSendElems, uint64(elems))
	} else {
		t.setPW(e, peRecvElems, uint64(elems))
	}
	t.setPW(e, myReg, 1)
	t.checkEntrySizes(e)
	if t.pw(e, peSendReg) != 0 && t.pw(e, peRecvReg) != 0 {
		t.ensureStaging(e, int(t.pw(e, peSendElems)))
	}
	return e
}

func (t *shmemTransport) sendInit(c *Comm, dst, tag int, buf []float64) *Request {
	t.persLockAcquire()
	e := t.matchOrAppend(c.rank, dst, tag, true, len(buf))
	t.persLockRelease()
	p := &shmPers{t: t, e: e, rank: c.rank, buf: buf}
	return &Request{comm: c, op: p, persistent: true, psend: true, peer: dst, tag: tag}
}

func (t *shmemTransport) recvInit(c *Comm, src, tag int, buf []float64) *Request {
	t.persLockAcquire()
	e := t.matchOrAppend(src, c.rank, tag, false, len(buf))
	t.persLockRelease()
	p := &shmPers{t: t, e: e, rank: c.rank, buf: buf}
	return &Request{comm: c, op: p, persistent: true, psend: false, peer: src, tag: tag}
}

func (p *shmPers) elems(r *Request) int { return len(p.buf) }

func (p *shmPers) partition(r *Request, bounds []int) {
	t := p.t
	np := len(bounds) - 1
	p.mu.Lock()
	p.bounds = append([]int(nil), bounds...)
	p.readyLoc = make([]bool, np)
	p.copied = make([]bool, np)
	p.mu.Unlock()
	t.persLockAcquire()
	boff := t.alloc(8 * (np + 1))
	for i, b := range bounds {
		atomic.StoreUint64(t.w64(boff+8*i), uint64(b))
	}
	// readyCycle words, zero = never ready. The heap is not: quarantine
	// rewinds the bump pointer without clearing it, so a respawned epoch's
	// words would inherit the dead epoch's stamps and a receiver would take
	// cycle 1 as already arrived.
	roff := t.alloc(8 * np)
	for i := 0; i < np; i++ {
		atomic.StoreUint64(t.w64(roff+8*i), 0)
	}
	t.setPW(p.e, peBounds, uint64(boff))
	t.setPW(p.e, peReady, uint64(roff))
	// nparts last: the receive side reads the offsets only once it sees a
	// nonzero partition count.
	t.setPW(p.e, peNParts, uint64(np))
	t.checkEntrySizes(p.e)
	t.persLockRelease()
}

// recvParts loads the sender's partitioning from the entry (0 when the
// matched sender is unpartitioned or not yet registered).
func (p *shmPers) recvParts() (np int, bounds, ready int) {
	t := p.t
	np = int(t.pw(p.e, peNParts))
	if np == 0 {
		return 0, 0, 0
	}
	return np, int(t.pw(p.e, peBounds)), int(t.pw(p.e, peReady))
}

// stageWait blocks until staging slot cycle%2 is safe to overwrite: the
// receiver consumed the cycle that used it last. lag is 2 for the
// double-buffered unpartitioned path, 1 for partitioned (single cycle in
// flight — readyCycle words hold one cycle number).
func (p *shmPers) stageWait(k uint64, lag uint64) {
	t := p.t
	done := t.w64(p.e + peDoneSeq*8)
	var sp spinner
	for {
		d := atomic.LoadUint64(done)
		if d+lag >= k {
			return
		}
		if ae := t.checkAbort(); ae != nil {
			panic(ae)
		}
		sp.spin()
	}
}

// matchWait blocks until the peer side registers (plan skew across worker
// processes); the watchdog reports the endpoint as psend/precv-unpaired if
// it never does.
func (p *shmPers) matchWait(peerReg int) {
	t := p.t
	var sp spinner
	for t.pw(p.e, peerReg) == 0 {
		if ae := t.checkAbort(); ae != nil {
			panic(ae)
		}
		sp.spin()
	}
}

// stageCycle copies the full send buffer into slot k%2 and publishes the
// cycle (unpartitioned sends). Caller holds p.mu; the peer must be
// registered and the slot reusable (stageWait).
func (p *shmPers) stageCycle(k uint64) {
	t, e := p.t, p.e
	t.persLockAcquire()
	t.ensureStaging(e, len(p.buf))
	t.persLockRelease()
	slot := int(k % 2)
	stage := int(t.pw(e, peStage0+slot))
	copy(t.floats(stage, len(p.buf)), p.buf)
	fo, fc := t.writeFlips(p.flips)
	t.setPW(e, peFlipsOff0+slot, uint64(fo))
	t.setPW(e, peFlipsCnt0+slot, uint64(fc))
	if t.w.verifyCRC {
		t.setPW(e, peCrc0+slot, uint64(crcFloats(p.buf)))
	}
	t.setPW(e, peSeqW0+slot, p.seq)
	t.setPW(e, peElems0+slot, uint64(len(p.buf)))
	atomic.StoreUint64(t.w64(e+peSendSeq*8), k)
	p.staged = true
}

func (p *shmPers) start(r *Request, seq uint64, flips []fault.ByteFlip) {
	t := p.t
	if r.psend {
		p.mu.Lock()
		if p.active {
			p.mu.Unlock()
			panic("mpi: persistent send started twice without Wait")
		}
		p.active = true
		p.cycle++
		k := p.cycle
		p.seq, p.flips = seq, flips
		if r.comm.m != nil {
			p.started = time.Now()
		}
		atomic.StoreUint64(t.w64(p.e+peSendStart*8), k)
		if p.bounds != nil {
			// Partitioned: nothing becomes visible at Start. Wait for the
			// previous cycle to drain (single in flight), then expose this
			// cycle's flight sequence so per-partition deliveries can be
			// attributed before the cycle's metadata lands.
			for i := range p.readyLoc {
				p.readyLoc[i] = false
				p.copied[i] = false
			}
			p.nready, p.ncopied = 0, 0
			p.staged = false
			p.stageWait(k, 1)
			t.setPW(p.e, peSeqW0+int(k%2), seq)
			p.mu.Unlock()
			return
		}
		if t.pw(p.e, peRecvReg) != 0 {
			p.stageWait(k, 2)
			p.stageCycle(k)
		} else {
			// Unmatched: defer staging to Wait, where we block for the peer.
			p.staged = false
		}
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	if p.active {
		p.mu.Unlock()
		panic("mpi: persistent receive started twice without Wait")
	}
	p.active = true
	p.cycle++
	atomic.StoreUint64(t.w64(p.e+peRecvStart*8), p.cycle)
	if np, _, _ := p.recvParts(); np > 0 {
		if len(p.arrived) != np {
			p.arrived = make([]bool, np)
		}
		for i := range p.arrived {
			p.arrived[i] = false
		}
		p.narrived = 0
	}
	p.mu.Unlock()
}

func (p *shmPers) preadyRange(r *Request, lo, hi int) {
	t := p.t
	c := r.comm
	p.mu.Lock()
	if p.bounds == nil {
		p.mu.Unlock()
		panic("mpi: Pready on an unpartitioned persistent send")
	}
	if !p.active {
		p.mu.Unlock()
		panic("mpi: Pready before Start")
	}
	np := len(p.bounds) - 1
	if lo < 0 || hi > np || lo >= hi {
		p.mu.Unlock()
		panic(fmt.Sprintf("mpi: Pready range [%d,%d) out of bounds for %d partitions", lo, hi, np))
	}
	for i := lo; i < hi; i++ {
		if p.readyLoc[i] {
			p.mu.Unlock()
			panic(fmt.Sprintf("mpi: partition %d marked ready twice in one cycle", i))
		}
		p.readyLoc[i] = true
		p.nready++
		c.fl.Record(flight.KindPready, int32(r.peer), int32(r.tag), int32(i),
			int64(8*(p.bounds[i+1]-p.bounds[i])), p.seq)
	}
	if t.pw(p.e, peRecvReg) != 0 {
		p.flushReadyLocked()
	}
	p.mu.Unlock()
	// Partitions advancing is progress: without this tick a long compute
	// phase with an armed pipeline would read as a stall to the watchdog.
	c.world.progressTick()
}

// flushReadyLocked copies every locally-ready-but-unstaged partition span
// into the cycle's staging slot and stamps its readyCycle word. The stamp
// that completes the set is preceded by the cycle's metadata (elems, flip
// list, CRC), so a receiver that has observed every stamp can trust the
// metadata words. Caller holds p.mu; the receive side must be registered.
func (p *shmPers) flushReadyLocked() {
	t, e := p.t, p.e
	k := p.cycle
	np := len(p.bounds) - 1
	t.persLockAcquire()
	t.ensureStaging(e, len(p.buf))
	t.persLockRelease()
	slot := int(k % 2)
	stage := int(t.pw(e, peStage0+slot))
	ready := int(t.pw(e, peReady))
	for i := 0; i < np; i++ {
		if !p.readyLoc[i] || p.copied[i] {
			continue
		}
		lo, hi := p.bounds[i], p.bounds[i+1]
		copy(t.floats(stage, len(p.buf))[lo:hi], p.buf[lo:hi])
		p.copied[i] = true
		p.ncopied++
		if p.ncopied == np {
			fo, fc := t.writeFlips(p.flips)
			t.setPW(e, peFlipsOff0+slot, uint64(fo))
			t.setPW(e, peFlipsCnt0+slot, uint64(fc))
			if t.w.verifyCRC {
				// The staged copy carries the cycle's payload exactly; CRC it
				// rather than p.buf so a racing compute thread mutating the
				// source after Pready cannot poison verification.
				t.setPW(e, peCrc0+slot, uint64(crcFloats(t.floats(stage, len(p.buf)))))
			}
			t.setPW(e, peElems0+slot, uint64(len(p.buf)))
		}
		atomic.StoreUint64(t.w64(ready+8*i), k)
	}
	if p.ncopied == np {
		p.staged = true
	}
}

func (p *shmPers) parrived(r *Request, i int) bool {
	t := p.t
	p.mu.Lock()
	defer p.mu.Unlock()
	np, bounds, ready := p.recvParts()
	if np == 0 {
		panic("mpi: Parrived with no partitioned sender matched")
	}
	if i < 0 || i >= np {
		panic(fmt.Sprintf("mpi: Parrived partition %d out of range (%d partitions)", i, np))
	}
	if len(p.arrived) != np {
		p.arrived = make([]bool, np)
	}
	if p.arrived[i] {
		return true
	}
	if atomic.LoadUint64(t.w64(ready+8*i)) != p.cycle {
		return false
	}
	p.copyPartLocked(r, i, bounds)
	return true
}

// copyPartLocked moves one arrived partition span from staging into the
// receive buffer. Caller holds p.mu and has checked the readyCycle stamp.
func (p *shmPers) copyPartLocked(r *Request, i, bounds int) {
	t, e := p.t, p.e
	slot := int(p.cycle % 2)
	stage := int(t.pw(e, peStage0+slot))
	lo := int(t.pw(bounds+8*i, 0))
	hi := int(t.pw(bounds+8*(i+1), 0))
	copy(p.buf[lo:hi], t.floats(stage+8*lo, hi-lo))
	r.comm.fl.Record(flight.KindParrived, int32(r.peer), int32(r.tag), int32(i),
		int64(8*(hi-lo)), t.pw(e, peSeqW0+slot))
	p.arrived[i] = true
	p.narrived++
}

func (p *shmPers) partitions(r *Request) int {
	if r.psend {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.bounds == nil {
			return 0
		}
		return len(p.bounds) - 1
	}
	np, _, _ := p.recvParts()
	return np
}

// waitSend completes the send side of a cycle: ensure the payload is
// staged and published. deadline is zero for an unbounded wait.
func (p *shmPers) waitSend(r *Request, deadline time.Time) error {
	t := p.t
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staged || !p.active {
		return nil
	}
	if p.bounds != nil {
		// Partitioned: every partition must be locally ready, and (if the
		// peer was slow to register) staged+stamped.
		var sp spinner
		for p.nready < len(p.bounds)-1 {
			if ae := t.checkAbort(); ae != nil {
				panic(ae)
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return &TimeoutError{Op: p.opName(r)}
			}
			// Pready arrives from other goroutines; let them in.
			p.mu.Unlock()
			sp.spin()
			p.mu.Lock()
		}
		if !p.staged {
			p.matchWait(peRecvReg)
			p.flushReadyLocked()
		}
		return nil
	}
	p.matchWait(peRecvReg)
	p.stageWait(p.cycle, 2)
	p.stageCycle(p.cycle)
	return nil
}

// waitRecv completes the receive side of a cycle: block for the sender's
// publication and copy the payload in. deadline is zero for an unbounded
// wait. The CRC verdict is returned (not raised) so block/blockTimeout can
// mirror the chan backend's complete-then-abort ordering.
func (p *shmPers) waitRecv(r *Request, deadline time.Time) (*CorruptionError, error) {
	t, e := p.t, p.e
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return nil, nil
	}
	k := p.cycle
	if atomic.LoadUint64(t.w64(e+peDoneSeq*8)) >= k {
		return nil, nil // cycle already consumed (repeated Wait)
	}
	slot := int(k % 2)
	var sp spinner
	// The matched sender may still be registering (plan skew across worker
	// processes), so its partition count cannot be read just once: a
	// partitioned sender publishes it with PsendInit and from then on only
	// stamps readyCycle words, never peSendSeq, while an unpartitioned one
	// publishes only peSendSeq. Wait for whichever shows up first.
	sendSeq := t.w64(e + peSendSeq*8)
	np, bounds, ready := p.recvParts()
	for np == 0 && atomic.LoadUint64(sendSeq) < k {
		if ae := t.checkAbort(); ae != nil {
			panic(ae)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, &TimeoutError{Op: p.opName(r)}
		}
		sp.spin()
		np, bounds, ready = p.recvParts()
	}
	if np > 0 {
		if len(p.arrived) != np {
			p.arrived = make([]bool, np)
		}
		for i := 0; i < np; i++ {
			for !p.arrived[i] {
				if atomic.LoadUint64(t.w64(ready+8*i)) == k {
					p.copyPartLocked(r, i, bounds)
					break
				}
				if ae := t.checkAbort(); ae != nil {
					panic(ae)
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return nil, &TimeoutError{Op: p.opName(r)}
				}
				sp.spin()
			}
		}
	} else {
		n := int(t.pw(e, peElems0+slot))
		stage := int(t.pw(e, peStage0+slot))
		copy(p.buf[:n], t.floats(stage, n))
		p.n = n
	}
	n := int(t.pw(e, peElems0+slot))
	p.n = n
	if fc := int(t.pw(e, peFlipsCnt0+slot)); fc > 0 {
		applyFlips(p.buf[:n], t.readFlips(int(t.pw(e, peFlipsOff0+slot)), fc))
	}
	var corrupt *CorruptionError
	if t.w.verifyCRC && uint64(crcFloats(p.buf[:n])) != t.pw(e, peCrc0+slot) {
		corrupt = &CorruptionError{
			Src: int(int64(t.pw(e, peSrc))),
			Dst: int(int64(t.pw(e, peDst))),
			Tag: int(int64(t.pw(e, peTag))),
		}
	}
	r.comm.fl.Deliver(int32(r.peer), int32(r.tag), -1, int64(8*n), t.pw(e, peSeqW0+slot))
	atomic.StoreUint64(t.w64(e+peDoneSeq*8), k)
	return corrupt, nil
}

func (p *shmPers) block(r *Request) {
	if r.psend {
		p.waitSend(r, time.Time{})
		return
	}
	corrupt, _ := p.waitRecv(r, time.Time{})
	if corrupt != nil {
		w := p.t.w
		w.abort(p.rank, corrupt)
		panic(w.Aborted())
	}
}

func (p *shmPers) blockTimeout(r *Request, d time.Duration) error {
	deadline := time.Now().Add(d)
	if r.psend {
		if err := p.waitSend(r, deadline); err != nil {
			if te, ok := err.(*TimeoutError); ok {
				te.After = d
			}
			return err
		}
		return nil
	}
	corrupt, err := p.waitRecv(r, deadline)
	if err != nil {
		if te, ok := err.(*TimeoutError); ok {
			te.After = d
		}
		return err
	}
	if corrupt != nil {
		w := p.t.w
		w.abort(p.rank, corrupt)
		return w.Aborted()
	}
	return nil
}

func (p *shmPers) finish(r *Request) int {
	c := r.comm
	c.world.progressTick()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active = false
	if r.psend {
		if m := c.m; m != nil && !p.started.IsZero() {
			m.sendSeconds.Observe(time.Since(p.started).Seconds())
		}
		return 0
	}
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(8 * p.n))
	if m := c.m; m != nil {
		m.recvBytes.Observe(float64(8 * p.n))
	}
	return p.n
}

func (p *shmPers) opName(r *Request) string {
	if r.psend {
		return fmt.Sprintf("wait psend dst=%d tag=%d", r.peer, r.tag)
	}
	return fmt.Sprintf("wait precv src=%d tag=%d", r.peer, r.tag)
}

func (p *shmPers) rebind(r *Request, buf []float64) {
	t := p.t
	p.mu.Lock()
	if p.active {
		p.mu.Unlock()
		if r.psend {
			panic("mpi: Rebind on an active persistent send")
		}
		panic("mpi: Rebind on an active persistent receive")
	}
	p.buf = buf
	p.mu.Unlock()
	t.persLockAcquire()
	if r.psend {
		t.setPW(p.e, peSendElems, uint64(len(buf)))
	} else {
		t.setPW(p.e, peRecvElems, uint64(len(buf)))
	}
	t.checkEntrySizes(p.e)
	if t.pw(p.e, peSendReg) != 0 && t.pw(p.e, peRecvReg) != 0 {
		t.ensureStaging(p.e, int(t.pw(p.e, peSendElems)))
	}
	t.persLockRelease()
}

func (p *shmPers) free(r *Request) {
	t := p.t
	p.mu.Lock()
	if p.gone {
		p.mu.Unlock()
		return
	}
	p.gone = true
	p.active = false
	p.buf = nil
	p.mu.Unlock()
	t.persLockAcquire()
	myFreed := peSendFreed
	if !r.psend {
		myFreed = peRecvFreed
	}
	t.setPW(p.e, myFreed, 1)
	matched := t.pw(p.e, peSendReg) != 0 && t.pw(p.e, peRecvReg) != 0
	if !matched || (t.pw(p.e, peSendFreed) != 0 && t.pw(p.e, peRecvFreed) != 0) {
		// Unmatched-freed endpoints leave the table so a later plan can
		// reuse the triple; matched channels die once both sides freed.
		t.setPW(p.e, peDead, 1)
	}
	t.persLockRelease()
}
