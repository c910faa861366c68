package mpi

import (
	"fmt"
	"os"
	"runtime"
	"slices"
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
// inherit its fd and attach (AttachShmemWorld), and every message and
// staged persistent cycle lives in the segment where all processes can
// reach it. Collectives are one-shot messages like
// any other (see collectives.go).
//
// Layout (all offsets 8-aligned; fixed regions first, bump heap last):
//
//	header      magic, size, abort words, heap bump pointer, progress,
//	            recovery round words
//	persistent  fixed table of channel entries (staging and cycle state)
//	rings       per-rank MPSC message rings (one-shot traffic)
//	one-shot    per-rank send regions: one-shot payload blocks, reclaimed
//	            once their receiver consumed them
//	heap        bump-allocated staging buffers and flip lists
//
// Protocol differences from the chan backend, deliberate and documented in
// docs/transports.md: one-shot sends are EAGER (the payload is staged in
// the heap at post; Wait on the send completes immediately) and persistent
// sends are eager-staged with double-buffered staging, because a remote
// receive buffer is an ordinary Go slice in another process — only its
// owner can fill it, so rendezvous-style "whoever matches second copies"
// cannot work across processes.
//
// All cross-process waits are polling loops (spinner) that watch both the
// local abort channel and the segment's abort words, so a world-wide abort
// published by any process unblocks every rank in every process.

const (
	shmMagic       = 0x627269636b736831 // "bricksh1"
	shmRingSlots   = 1024               // one-shot messages in flight per rank
	shmMaxPers     = 4096               // persistent endpoint table capacity (channels, world-wide)
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
	offPersCount   = 64 // persistent table entries in use
	offAbortMsg    = 72
	// offProgress is the world-wide progress counter: every completed wait
	// in ANY attached process ticks it. Each process's watchdog samples it
	// alongside its local counter, so a worker computing quietly while its
	// peers move data is not misread as a stall.
	offProgress = offAbortMsg + shmAbortMsgCap
	// The recovery round's cell (see recovery.go), with the per-rank parked
	// words. offRecGen is the round generation — parked ranks spin until it
	// moves; offRecVerdict is 1 when the round resumed, and offRecStep the
	// checkpoint step to restore, encoded as step+1 so the zero word means
	// "no checkpoint, restart from scratch".
	offRecGen     = offProgress + 8
	offRecVerdict = offProgress + 16
	offRecStep    = offProgress + 24
	shmHdrBytes   = offRecStep + 8
)

// Persistent-table entry word indices. One entry is the shared data path of
// one persistent channel: its sender claims it at SendInit, and the receive
// side that matches binds to it (the entry offset is the channel's link,
// see persistent.go). Once both sides retired it, the next channel a
// sender registers may claim it again.
const (
	peStageCap = iota // staging slot capacity, elems
	peStage0          // heap offsets of the two staging slots
	peStage1
	peElems0 // payload length staged in each slot's current cycle
	peElems1
	peFlipsOff0 // per-slot injected-corruption list (heap offset + count)
	peFlipsOff1
	peFlipsCnt0
	peFlipsCnt1
	peSeqW0 // per-slot flight sequence stamp
	peSeqW1
	peSendSeq // last published send cycle
	peDoneSeq // last cycle the receiver consumed
	peRetired // the sides done with the entry: 1 its sender, 2 its receive side
	peWords
)

// peFree is the peRetired word of an entry both sides are done with: the
// next channel may claim it.
const peFree = 3

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
	incs      int // per-rank incarnation words
	parked    int // per-rank recovery-parked words
	pers      int // shmMaxPers * peWords words
	ringBytes int
	rings     int // size rings
	osBytes   int // one send region's bytes: head, tail, then blocks
	oneShot   int // size send regions
	heap      int
	heapEnd   int
}

func shmLayoutFor(size, segBytes int) (shmLayout, error) {
	l := shmLayout{size: size}
	off := shmHdrBytes
	l.incs = off
	off += size * 8
	l.parked = off
	off += size * 8
	l.pers = off
	off += shmMaxPers * peWords * 8
	l.ringBytes = 16 + shmRingSlots*16
	l.rings = off
	off += size * l.ringBytes
	// A quarter of what remains is split into the per-rank send regions;
	// the bump heap keeps the rest for persistent staging.
	l.osBytes = (segBytes - off) / 4 / size &^ 7
	l.oneShot = off
	off += size * l.osBytes
	l.heap = off
	l.heapEnd = segBytes
	if l.heapEnd-l.heap < 1<<20 || l.osBytes < 64<<10 {
		return l, fmt.Errorf("segment of %d bytes too small for %d ranks (need %d + heap); raise BRICK_SHMEM_BYTES",
			segBytes, size, l.heap)
	}
	return l, nil
}

type shmemTransport struct {
	w     *World
	arena *shmem.Arena
	b     []byte // 8-aligned window over the segment
	l     shmLayout
	// osMu serializes each rank's allocations from its send region; only
	// the process hosting a rank allocates from that rank's region. ringMu
	// serializes the drains of each rank's ring, its single consumer.
	osMu, ringMu []sync.Mutex

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
	t := &shmemTransport{w: w, arena: arena, b: b, l: l, osMu: make([]sync.Mutex, size), ringMu: make([]sync.Mutex, size)}
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

// alloc bump-allocates n bytes from the segment heap (8-aligned, freed only
// by quarantine's rewind) for persistent staging. Panics on exhaustion:
// every caller is on a path where an error cannot be surfaced, and a bigger
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

// checkAbort reports the world's abort error, adopting a peer process's
// abort published in the segment into the local world first if needed.
// Every polling wait calls it each iteration.
func (t *shmemTransport) checkAbort() *AbortError {
	if ae := t.w.Aborted(); ae != nil {
		return ae
	}
	if atomic.LoadUint64(t.w64(offAbortState)) != 0 {
		rank := int(int64(atomic.LoadUint64(t.w64(offAbortRank))))
		n := int(atomic.LoadUint64(t.w64(offAbortMsgLen)))
		t.w.abort(rank, &RemoteAbort{Msg: string(t.b[offAbortMsg : offAbortMsg+n])})
		return t.w.Aborted()
	}
	return nil
}

func (t *shmemTransport) publishedAbort() *AbortError { return t.checkAbort() }

// abortAll publishes the local abort into the segment (first process
// wins) so peer processes' polling waits unwind too. Local waits are
// polling loops that observe the local abort directly.
func (t *shmemTransport) abortAll(ae *AbortError) {
	if !atomic.CompareAndSwapUint64(t.w64(offAbortClaim), 0, 1) {
		return
	}
	rank, msg := ae.Rank, ae.cause()
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

// WorkerSpawnFiles returns the files a spawned worker must inherit, in
// os/exec ExtraFiles order starting at fd 3: a shmem world's segment, nil
// on other transports.
func (w *World) WorkerSpawnFiles() []*os.File {
	if f := w.ShmemFile(); f != nil {
		return []*os.File{f}
	}
	return nil
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
	w := &World{abortCh: make(chan struct{}), solo: true}
	t, err := newShmemTransport(w, arena, false)
	if err != nil {
		arena.Close()
		return nil, fmt.Errorf("mpi: attaching shmem world: %w", err)
	}
	w.setTransport("shmem", t)
	w.epoch = t.verdictAt(atomic.LoadUint64(t.w64(offRecGen)), false)
	return w, nil
}

// progress adds to one monotonic counter in the segment header that every
// attached process ticks, so each process's watchdog sees world-wide
// progress.
func (t *shmemTransport) progress(add int64) int64 {
	return int64(atomic.AddUint64(t.w64(offProgress), uint64(add)))
}

// incarnation reads rank's incarnation word: bumped by quarantine for
// every dead rank, so a respawned worker self-identifies and pre-crash
// deliveries are discarded at drain.
func (t *shmemTransport) incarnation(rank int) uint64 {
	return atomic.LoadUint64(t.w64(t.l.incs + rank*8))
}

// quarantine re-seeds the segment's shared wire state for a new epoch. The
// caller must guarantee quiescence: every rank parked, exited, or dead —
// the recovery round's convergence establishes it. Rings are drained and
// re-sequenced, the persistent channel table cleared (the new epoch
// re-pairs from scratch and builds new channels), and both allocators
// rewind — the send regions to empty, the heap bump pointer to its base:
// every one-shot block and staged payload belonged to the dead epoch. Dead
// ranks get their incarnation bumped so any block a crashed sender already
// published is discarded at drain, and the checkpoint step the new epoch
// restores from is published at offRecStep. Monotonic shared words
// (progress, recovery generation) and live ranks' incarnations are
// preserved.
func (t *shmemTransport) quarantine(dead []int, restoreStep int) {
	l := t.l
	// Abort words last published win; the new epoch fails loud on its own.
	atomic.StoreUint64(t.w64(offAbortState), 0)
	atomic.StoreUint64(t.w64(offAbortRank), 0)
	atomic.StoreUint64(t.w64(offAbortMsgLen), 0)
	atomic.StoreUint64(t.w64(offAbortClaim), 0)
	// Persistent channel table, including staging-slot metadata.
	cnt := min(int(atomic.LoadUint64(t.w64(offPersCount))), shmMaxPers)
	for i := 0; i < cnt*peWords; i++ {
		atomic.StoreUint64(t.w64(l.pers+i*8), 0)
	}
	atomic.StoreUint64(t.w64(offPersCount), 0)
	// Rings: drop in-flight one-shot traffic, restore Vyukov slot seeding;
	// send regions: empty.
	for r := 0; r < l.size; r++ {
		base := l.rings + r*l.ringBytes
		atomic.StoreUint64(t.w64(base), 0)
		atomic.StoreUint64(t.w64(base+8), 0)
		for i := 0; i < shmRingSlots; i++ {
			atomic.StoreUint64(t.w64(base+16+i*16), uint64(i))
		}
		atomic.StoreUint64(t.w64(l.oneShot+r*l.osBytes), 0)
		atomic.StoreUint64(t.w64(l.oneShot+r*l.osBytes+8), 0)
	}
	atomic.StoreUint64(t.w64(offHeapNext), uint64(l.heap))
	for _, r := range dead {
		atomic.AddUint64(t.w64(l.incs+r*8), 1)
	}
	atomic.StoreUint64(t.w64(offRecStep), uint64(restoreStep+1))
}

// ---- the recovery round's cell: segment words ----

func (t *shmemTransport) parked() (out []int) {
	for r := 0; r < t.l.size; r++ {
		if atomic.LoadUint64(t.w64(t.l.parked+r*8)) != 0 {
			out = append(out, r)
		}
	}
	return out
}

func (t *shmemTransport) await(rank int, gen uint64) (verdict, bool) {
	atomic.StoreUint64(t.w64(t.l.parked+rank*8), 1)
	var sp spinner
	for atomic.LoadUint64(t.w64(offRecGen)) <= gen {
		sp.spin()
	}
	return t.verdictAt(atomic.LoadUint64(t.w64(offRecGen)), atomic.LoadUint64(t.w64(offRecVerdict)) == 1), true
}

// settle publishes the verdict word ahead of the generation, so a rank that
// sees the generation move reads this round's verdict.
func (t *shmemTransport) settle(resume bool, dead []int, step int) verdict {
	word := uint64(0)
	if resume {
		t.quarantine(dead, step)
		word = 1
	}
	for r := 0; r < t.l.size; r++ {
		atomic.StoreUint64(t.w64(t.l.parked+r*8), 0)
	}
	atomic.StoreUint64(t.w64(offRecVerdict), word)
	return t.verdictAt(atomic.LoadUint64(t.w64(offRecGen))+1, resume)
}

func (t *shmemTransport) release(v verdict) { atomic.StoreUint64(t.w64(offRecGen), v.gen) }

// verdictAt reads round gen's verdict from the segment: the checkpoint
// step its epoch restores from and every rank's incarnation.
func (t *shmemTransport) verdictAt(gen uint64, resume bool) verdict {
	v := verdict{gen: gen, resume: resume, step: int(atomic.LoadUint64(t.w64(offRecStep))) - 1,
		incs: make([]uint64, t.l.size)}
	for r := range v.incs {
		v.incs[r] = t.incarnation(r)
	}
	return v
}

func (t *shmemTransport) close() error {
	t.closeOnce.Do(func() { t.closeErr = t.arena.Close() })
	return t.closeErr
}

// ---- one-shot messages: per-rank MPSC rings over send-region blocks ----

// One-shot message layout in its sender's region (words): src, tag, elems,
// seq, flipsCnt, crc, sender incarnation, then the payload floats, then
// flipsCnt (off, mask) pairs. The region's block header word precedes it.
const shmMsgHdr = 56

// A send region is a ring allocator owned by its sender: a head and a tail
// word (monotonic byte positions, rewound by quarantine), then the block
// area. Each block starts with a header word, size<<1 | consumed. The
// sender allocates at head; a receiver sets the consumed bit once it has
// copied the message out (consume), and the sender's next allocation
// advances tail past every consumed block at the front. A block never
// wraps: the area's tail end is skipped with a pad block born consumed.
// A full region — receivers holding every block — makes the sender spin
// until one is consumed; the watchdog reports the messages pending.
const shmOSHdr = 16

// oneShotAlloc reserves a block for an n-byte one-shot message in rank's
// send region and returns the message's offset.
func (t *shmemTransport) oneShotAlloc(rank, n int) int {
	need := 8 + (n+7)&^7
	base := t.l.oneShot + rank*t.l.osBytes
	area := t.l.osBytes - shmOSHdr
	if need > area {
		panic(fmt.Sprintf("mpi: one-shot message of %d bytes exceeds the %d-byte shmem send region (raise BRICK_SHMEM_BYTES)",
			n, area))
	}
	blk := func(pos uint64) *uint64 { return t.w64(base + shmOSHdr + int(pos%uint64(area))) }
	t.osMu[rank].Lock()
	defer t.osMu[rank].Unlock()
	head, tail := atomic.LoadUint64(t.w64(base)), atomic.LoadUint64(t.w64(base+8))
	var sp spinner
	for {
		for tail < head {
			h := atomic.LoadUint64(blk(tail))
			if h&1 == 0 {
				break
			}
			tail += h >> 1
		}
		if tail == head {
			head, tail = 0, 0 // empty: restart at the front, keeping pages warm
		}
		pad := 0
		if at := int(head % uint64(area)); at+need > area {
			pad = area - at
		}
		if uint64(area)-(head-tail) >= uint64(pad+need) {
			if pad > 0 {
				atomic.StoreUint64(blk(head), uint64(pad)<<1|1)
				head += uint64(pad)
			}
			atomic.StoreUint64(blk(head), uint64(need)<<1)
			atomic.StoreUint64(t.w64(base), head+uint64(need))
			atomic.StoreUint64(t.w64(base+8), tail)
			return base + shmOSHdr + int(head%uint64(area)) + 8
		}
		if ae := t.checkAbort(); ae != nil {
			panic(ae)
		}
		sp.spin()
	}
}

// consume marks the one-shot message at off consumed, handing its block
// back to the sender's region.
func (t *shmemTransport) consume(off int) {
	h := t.w64(off - 8)
	atomic.StoreUint64(h, atomic.LoadUint64(h)|1)
}

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

// drain hands rank's matcher every message published in its ring, in ring
// order (which is each sender's send order), and adopts a peer process's
// abort: nothing pushes arrivals, so a waiting receive polls. A message of
// a sender's earlier incarnation — a rank respawned after a crash — is
// consumed unread, never matched against a post-restore receive.
func (t *shmemTransport) drain(rank int) bool {
	t.checkAbort()
	base := t.l.rings + rank*t.l.ringBytes
	tail := t.w64(base + 8)
	if _, ok := t.ringSlot(base, atomic.LoadUint64(tail)); !ok {
		return true // nothing published: a waiting receive polls without the lock
	}
	t.ringMu[rank].Lock()
	defer t.ringMu[rank].Unlock()
	for {
		tl := atomic.LoadUint64(tail)
		slot, ok := t.ringSlot(base, tl)
		if !ok {
			return true
		}
		seqp := t.w64(slot)
		off := int(atomic.LoadUint64(t.w64(slot + 8)))
		if a, inc := t.readMsg(off); inc == t.incarnation(a.src) {
			a.release = func() { t.consume(off) }
			t.w.arrive(rank, a)
		} else {
			t.consume(off)
		}
		atomic.StoreUint64(seqp, tl+shmRingSlots)
		atomic.StoreUint64(tail, tl+1)
	}
}

// ringSlot returns the slot of ticket s in the ring at base, and whether
// its message is published (the producer stored the slot's sequence).
func (t *shmemTransport) ringSlot(base int, s uint64) (int, bool) {
	slot := base + 16 + int(s%shmRingSlots)*16
	return slot, atomic.LoadUint64(t.w64(slot)) == s+1
}

// readMsg reads the one-shot message at off: the arrival, its payload
// viewed in the block, and the sender's incarnation at post.
func (t *shmemTransport) readMsg(off int) (arrival, uint64) {
	elems := int(*t.w64(off + 16))
	return arrival{
		src: int(int64(*t.w64(off))),
		tag: int(int64(*t.w64(off + 8))),
		seq: *t.w64(off + 24),
		payload: payload{
			data:    t.floats(off+shmMsgHdr, elems),
			flips:   t.readFlips(off+shmMsgHdr+8*elems, int(*t.w64(off + 32))),
			crc:     uint32(*t.w64(off + 40)),
			stamped: true,
		},
	}, *t.w64(off + 48)
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

// writeFlips writes a corruption list at off as (offset, mask) word pairs.
func (t *shmemTransport) writeFlips(off int, flips []fault.ByteFlip) {
	for i, f := range flips {
		*t.w64(off + 16*i) = uint64(f.Off)
		*t.w64(off + 16*i + 8) = uint64(f.Mask)
	}
}

// send stages the message in a block of the sender's region and publishes
// it to dst's ring; the send is complete once staged.
func (t *shmemTransport) send(c *Comm, dst int, a arrival) {
	buf, flips := a.data, a.flips
	off := t.oneShotAlloc(c.rank, shmMsgHdr+8*len(buf)+16*len(flips))
	*t.w64(off) = uint64(int64(a.src))
	*t.w64(off + 8) = uint64(int64(a.tag))
	*t.w64(off + 16) = uint64(len(buf))
	*t.w64(off + 24) = a.seq
	*t.w64(off + 32) = uint64(len(flips))
	if t.w.verifyCRC {
		*t.w64(off + 40) = uint64(crcFloats(buf))
	}
	*t.w64(off + 48) = t.incarnation(c.rank)
	copy(t.floats(off+shmMsgHdr, len(buf)), buf)
	t.writeFlips(off+shmMsgHdr+8*len(buf), flips)
	t.ringPush(dst, off)
	a.release()
}

// peek lists the messages published in every rank's ring that no drain has
// taken, without taking them: this process may host none of those ranks.
// Pairing descriptors are bookkeeping, not waits, and stay out.
func (t *shmemTransport) peek() []PendingOp {
	var ops []PendingOp
	for r := 0; r < t.l.size; r++ {
		base := t.l.rings + r*t.l.ringBytes
		head, tail := atomic.LoadUint64(t.w64(base)), atomic.LoadUint64(t.w64(base+8))
		for s := tail; s < head; s++ {
			slot, ok := t.ringSlot(base, s)
			if !ok {
				continue
			}
			if a, _ := t.readMsg(int(atomic.LoadUint64(t.w64(slot + 8)))); a.tag != pairTag {
				ops = append(ops, PendingOp{Kind: flight.PendSendUnmatched, Src: a.src, Dst: r, Tag: a.tag,
					Bytes: int64(8 * len(a.data))})
			}
		}
	}
	return ops
}

// ---- persistent channels ----
//
// A persistent channel is one entry of the shared table, appended by its
// sender. A send stages its payload in slot k%2 at Start and publishes
// peSendSeq; the receiver lands the slot once it sees cycle k published
// and publishes peDoneSeq. A sender may run one full cycle ahead (slot
// reuse waits for peDoneSeq >= k-2), which is the pipelining the chan
// backend allows. A receive buffer is an ordinary slice in its owner's
// process, so only the receive side can land: it polls, and the cycle
// polls it whenever it waits.

// persEntry returns the byte offset of table entry i.
func (t *shmemTransport) persEntry(i int) int { return t.l.pers + i*peWords*8 }

// pw reads entry word idx of the entry at byte offset e.
func (t *shmemTransport) pw(e, idx int) uint64 { return atomic.LoadUint64(t.w64(e + idx*8)) }

func (t *shmemTransport) setPW(e, idx int, v uint64) { atomic.StoreUint64(t.w64(e+idx*8), v) }

// shmLink is one side's process-local handle on a table entry; its fields
// are guarded by the endpoint's lock.
type shmLink struct {
	t   *shmemTransport
	ent int // entry byte offset in the segment; 0 until a receive side binds
}

// ensureStaging grows the entry's double-buffered staging slots to hold at
// least elems floats. Only the entry's sender writes them. Old slots are
// abandoned to the bump heap (rebind-growth is rare; the heap is
// append-only anyway).
func (t *shmemTransport) ensureStaging(e, elems int) {
	if int(t.pw(e, peStageCap)) >= elems {
		return
	}
	t.setPW(e, peStage0, uint64(t.alloc(8*elems)))
	t.setPW(e, peStage1, uint64(t.alloc(8*elems)))
	t.setPW(e, peStageCap, uint64(elems))
}

// newLink builds a receive side's unbound handle, or claims a send side's
// entry with staging sized for its buffer, kept from the entry's last
// channel when it fits.
func (t *shmemTransport) newLink(e *cycle) link {
	l := &shmLink{t: t}
	if !e.r.send {
		return l
	}
	l.ent = t.claim(len(e.buf))
	t.ensureStaging(l.ent, len(e.buf))
	e.r.pend.link = uint64(l.ent)
	return l
}

// claim takes a table entry for a channel of elems elements: the free
// entry whose staging fits it best — the least heap to grow, then the
// fewest staging elements to spare — or else a new one. A claimed entry's
// cycle words restart.
func (t *shmemTransport) claim(elems int) int {
	for {
		best, fit := -1, [2]int{}
		for i := range min(int(atomic.LoadUint64(t.w64(offPersCount))), shmMaxPers) {
			e := t.persEntry(i)
			if t.pw(e, peRetired) != peFree {
				continue
			}
			var f [2]int // heap words to grow, elements to spare
			if c := int(t.pw(e, peStageCap)); c < elems {
				f[0] = 2 * elems
			} else {
				f[1] = c - elems
			}
			if best < 0 || slices.Compare(f[:], fit[:]) < 0 {
				best, fit = e, f
			}
		}
		if best < 0 {
			break
		}
		if atomic.CompareAndSwapUint64(t.w64(best+peRetired*8), peFree, 0) {
			t.setPW(best, peSendSeq, 0)
			t.setPW(best, peDoneSeq, 0)
			return best
		}
	}
	i := int(atomic.AddUint64(t.w64(offPersCount), 1)) - 1
	if i >= shmMaxPers {
		panic(fmt.Sprintf("mpi: shmem persistent endpoint table full (%d endpoints)", shmMaxPers))
	}
	return t.persEntry(i)
}

// retire marks one side done with the entry at offset link (0: a channel
// that has none); the second side frees the entry for reuse. Each side
// retires once, so adding its bit sets it.
func (t *shmemTransport) retire(link uint64, send bool) {
	if link == 0 {
		return
	}
	bit := uint64(2)
	if send {
		bit = 1
	}
	atomic.AddUint64(t.w64(int(link)+peRetired*8), bit)
}

// bind attaches a receive side to its sender's entry.
func (l *shmLink) bind(e *cycle, s *pend) {
	e.mu.Lock()
	l.ent = int(s.link)
	e.mu.Unlock()
}

// stageWait blocks until the receiver has consumed every cycle up to k-lag,
// so slot k%2 (lag 2) or every slot (lag 1) is safe to overwrite.
func (l *shmLink) stageWait(k, lag uint64) {
	t := l.t
	done := t.w64(l.ent + peDoneSeq*8)
	var sp spinner
	for atomic.LoadUint64(done)+lag < k {
		if ae := t.checkAbort(); ae != nil {
			panic(ae)
		}
		sp.spin()
	}
}

// put stages the payload in slot k%2 with the cycle's metadata (length,
// flip list, flight stamp) and publishes the cycle, so a receiver that sees
// it published can trust them. A send buffer grown by Rebind first waits
// for the receiver to finish every earlier cycle.
func (l *shmLink) put(e *cycle, _ *batch) {
	t, ent := l.t, l.ent
	k := e.n
	slot := int(k % 2)
	lag := uint64(2)
	if int(t.pw(ent, peStageCap)) < len(e.buf) {
		lag = 1
	}
	l.stageWait(k, lag)
	t.ensureStaging(ent, len(e.buf))
	if len(e.flips) > 0 { // staged in the heap
		fo := t.alloc(16 * len(e.flips))
		t.writeFlips(fo, e.flips)
		t.setPW(ent, peFlipsOff0+slot, uint64(fo))
	}
	t.setPW(ent, peFlipsCnt0+slot, uint64(len(e.flips)))
	t.setPW(ent, peSeqW0+slot, e.seq)
	t.setPW(ent, peElems0+slot, uint64(len(e.buf)))
	copy(t.floats(int(t.pw(ent, peStage0+slot)), len(e.buf)), e.buf)
	atomic.StoreUint64(t.w64(ent+peSendSeq*8), k)
	e.sent()
}

// poll adopts a peer process's abort (the cycle's wait watches only the
// local abort channel) and lands the payload once it is published for the
// open receive cycle, then hands the slot back.
func (l *shmLink) poll(e *cycle) bool {
	t, ent := l.t, l.ent
	t.checkAbort()
	if ent == 0 {
		return true // not bound yet
	}
	k := e.n
	if atomic.LoadUint64(t.w64(ent+peSendSeq*8)) < k {
		return true
	}
	slot := int(k % 2)
	flips := t.readFlips(int(t.pw(ent, peFlipsOff0+slot)), int(t.pw(ent, peFlipsCnt0+slot)))
	n := int(t.pw(ent, peElems0+slot))
	e.land(payload{data: t.floats(int(t.pw(ent, peStage0+slot)), n), flips: flips}, t.pw(ent, peSeqW0+slot))
	if e.state.Load() == cycDone {
		atomic.StoreUint64(t.w64(ent+peDoneSeq*8), k)
	}
	return true
}
