package mpi

import (
	"fmt"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/flight"
)

// Persistent and partitioned traffic over tcp. Endpoints register with the
// coordinator (tfPReg) keyed by (epoch, src, dst, tag, slot), where slot is
// the per-side ordinal of that (src, dst, tag) triple — the k-th SendInit
// of a triple pairs with the k-th RecvInit, the same FIFO pairing the chan
// backend's table gives. The coordinator pushes tfPaired to both sides once
// both registered; the sender's partition count rides along, so the
// receiver knows how many Parrived slots a cycle has before the first
// partition lands.
//
// Cycles are eager like one-shot sends: an unpartitioned Start puts the
// whole payload on the wire (tfPData) and Wait completes immediately;
// a partitioned Start arms the cycle and each Pready ships its partition
// span (one tfPPart per partition, offset-addressed into the receive
// buffer). Receive cycles are keyed by the sender's cycle number carried
// in every frame, so a sender running ahead of the receiver's Start parks
// its frames in that future cycle's state rather than corrupting the
// current one — and frames for endpoints not yet registered park in the
// node's early queue until RecvInit drains them.

// tcpPersCycle is the receive side's state of its started cycle. It is
// reset, not reallocated, at every Start.
type tcpPersCycle struct {
	// done carries one token when the cycle completes; Start drains a
	// token a Wait that found the cycle already complete left behind.
	done     chan struct{}
	complete bool
	arrived  []bool
	nparts   int // -1 until the first partition frame of the cycle
	narrived int
	elems    int
	fseq     uint64
	corrupt  *CorruptionError
	overflow string
}

// tcpPers is one persistent endpoint (send or receive side); it is the
// reqOp/persOp of its Request.
type tcpPers struct {
	n     *tcpNode
	c     *Comm
	key   persKey
	psend bool

	mu     sync.Mutex
	buf    []float64
	freed  bool
	paired bool
	active bool
	cycle  uint64

	// Send side. sending counts Pready calls still writing their frames;
	// sendDone carries one token when every partition of the cycle is
	// ready and written, like tcpPersCycle.done.
	bounds   []int
	ready    []bool
	nready   int
	sending  int
	seq      uint64
	flips    []fault.ByteFlip
	sendDone chan struct{}

	// Receive side. nparts is tri-state: -1 until pairing reveals the
	// sender's shape, 0 for an unpartitioned sender, >0 partitioned.
	// parked holds frames of later cycles in arrival order: a frame may land
	// in the receive buffer only once its cycle starts, since before that
	// the buffer still belongs to the rank (a restore writes it, the
	// previous step's compute reads it). spare recycles their word buffers.
	nparts int
	cur    tcpPersCycle
	parked []earlyPersFrame
	spare  [][]float64
}

func (n *tcpNode) sendInit(c *Comm, dst, tag int, buf []float64) *Request {
	n.mu.Lock()
	sk := slotKey{psend: true, src: c.rank, dst: dst, tag: tag}
	slot := n.slotNext[sk]
	n.slotNext[sk]++
	key := persKey{src: c.rank, dst: dst, tag: tag, slot: slot}
	p := &tcpPers{n: n, c: c, key: key, psend: true, buf: buf, nparts: -1, sendDone: make(chan struct{}, 1)}
	n.persSend[key] = p
	n.mu.Unlock()
	n.preg(p)
	return &Request{comm: c, op: p, persistent: true, psend: true, peer: dst, tag: tag}
}

func (n *tcpNode) recvInit(c *Comm, src, tag int, buf []float64) *Request {
	n.mu.Lock()
	sk := slotKey{psend: false, src: src, dst: c.rank, tag: tag}
	slot := n.slotNext[sk]
	n.slotNext[sk]++
	key := persKey{src: src, dst: c.rank, tag: tag, slot: slot}
	p := &tcpPers{n: n, c: c, key: key, psend: false, buf: buf, nparts: -1,
		cur: tcpPersCycle{done: make(chan struct{}, 1)}}
	n.persRecv[key] = p
	// Frames that beat this registration parked in the early queue.
	pending := n.early[key]
	delete(n.early, key)
	for _, f := range pending {
		p.deliver(f.kind, &f.h, f.data, f.flips)
	}
	n.mu.Unlock()
	n.preg(p)
	return &Request{comm: c, op: p, persistent: true, peer: src, tag: tag}
}

// preg (re-)registers an endpoint with the coordinator; a sender re-sends
// after partitioning so the pairing note carries the partition count.
func (n *tcpNode) preg(p *tcpPers) {
	p.mu.Lock()
	parts := 0
	if p.bounds != nil {
		parts = len(p.bounds) - 1
	}
	p.mu.Unlock()
	if err := n.ctl.send(tfPReg, &ctlMsg{
		Rank: n.rank, Src: p.key.src, Dst: p.key.dst, Tag: p.key.tag, Slot: p.key.slot,
		Parts: parts, Psend: p.psend, Epoch: n.epoch.Load(),
	}); err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d lost control connection: %w", n.rank, err))
		panic(n.w.Aborted())
	}
}

// deliverPers routes an arrived persistent frame (n.mu held). data is the
// reader's scratch: whatever outlives this call is copied.
func (n *tcpNode) deliverPers(kind byte, h *tcpHdr, data []float64, flips []fault.ByteFlip) {
	key := persKey{src: h.src, dst: h.dst, tag: h.tag, slot: h.slot}
	p := n.persRecv[key]
	if p == nil {
		n.early[key] = append(n.early[key], &earlyPersFrame{
			kind: kind, h: *h, data: append([]float64(nil), data...), flips: flips})
		return
	}
	p.deliver(kind, h, data, flips)
}

func (p *tcpPers) setPaired(parts int) {
	p.mu.Lock()
	p.paired = true
	if !p.psend {
		p.nparts = parts
	}
	p.mu.Unlock()
}

// deliver takes one cycle frame: it lands now if its cycle is the started
// one, parks if its cycle has not started, and is dropped if its cycle
// already finished.
func (p *tcpPers) deliver(kind byte, h *tcpHdr, data []float64, flips []fault.ByteFlip) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return
	}
	switch {
	case p.active && h.cyc == p.cycle:
		p.land(kind, h, data, flips)
	case h.cyc > p.cycle:
		var words []float64
		if k := len(p.spare); k > 0 {
			words, p.spare = p.spare[k-1], p.spare[:k-1]
		}
		p.parked = append(p.parked, earlyPersFrame{kind: kind, h: *h, data: append(words[:0], data...), flips: flips})
	}
}

// land copies one frame of the started cycle into the receive buffer:
// copy, injected byte flips, then the receive-side CRC over what actually
// landed — the same corruption gauntlet the chan backend runs, raised on
// the waiting rank at Wait. p.mu held.
func (p *tcpPers) land(kind byte, h *tcpHdr, data []float64, flips []fault.ByteFlip) {
	st := &p.cur
	if st.complete {
		return
	}
	switch kind {
	case tfPData:
		if p.nparts < 0 {
			p.nparts = 0
		}
		nel := len(data)
		if nel > len(p.buf) {
			st.overflow = fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
				h.src, h.dst, h.tag, nel, len(p.buf))
			p.finishCycle()
			return
		}
		copy(p.buf[:nel], data)
		applyFlips(p.buf[:nel], flips)
		if p.n.w.verifyCRC && crcFloats(data) != crcFloats(p.buf[:nel]) {
			st.corrupt = &CorruptionError{Src: h.src, Dst: p.c.rank, Tag: h.tag}
		}
		st.elems = nel
		st.fseq = h.fseq
		p.c.fl.Deliver(int32(h.src), int32(h.tag), -1, int64(8*nel), h.fseq)
		p.finishCycle()
	case tfPPart:
		if st.nparts < 0 {
			st.nparts = h.nparts
			if cap(st.arrived) < h.nparts {
				st.arrived = make([]bool, h.nparts)
			}
			st.arrived = st.arrived[:h.nparts]
			clear(st.arrived)
			if p.nparts < 0 {
				p.nparts = h.nparts
			}
		}
		i := h.partLo
		if i < 0 || i >= len(st.arrived) {
			return
		}
		span := len(data)
		if h.offE < 0 || h.offE+span > len(p.buf) {
			st.overflow = fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
				h.src, h.dst, h.tag, h.offE+span, len(p.buf))
			p.finishCycle()
			return
		}
		copy(p.buf[h.offE:h.offE+span], data)
		// Flip offsets are absolute into the full buffer, so they land at
		// the right elements no matter which span carried them.
		applyFlips(p.buf, flips)
		if p.n.w.verifyCRC && crcFloats(data) != crcFloats(p.buf[h.offE:h.offE+span]) {
			st.corrupt = &CorruptionError{Src: h.src, Dst: p.c.rank, Tag: h.tag}
		}
		st.fseq = h.fseq
		if !st.arrived[i] {
			st.arrived[i] = true
			st.narrived++
			st.elems += span
			p.c.fl.Record(flight.KindParrived, int32(h.src), int32(h.tag), int32(i), int64(8*span), h.fseq)
		}
		if st.narrived == st.nparts {
			p.c.fl.Deliver(int32(h.src), int32(h.tag), -1, int64(8*st.elems), h.fseq)
			p.finishCycle()
		}
	}
}

// finishCycle marks the started receive cycle complete and wakes its
// Wait. p.mu held.
func (p *tcpPers) finishCycle() {
	p.cur.complete = true
	select {
	case p.cur.done <- struct{}{}:
	default:
	}
}

// signalSent wakes the Wait of a send cycle whose partitions are all
// ready and written. p.mu held.
func (p *tcpPers) signalSent() {
	select {
	case p.sendDone <- struct{}{}:
	default:
	}
}

// ---- persOp ----

func (p *tcpPers) elems(r *Request) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

func (p *tcpPers) partition(r *Request, bounds []int) {
	p.mu.Lock()
	p.bounds = bounds
	p.ready = make([]bool, len(bounds)-1)
	p.mu.Unlock()
	p.n.preg(p)
}

func (p *tcpPers) start(r *Request, seq uint64, flips []fault.ByteFlip) {
	if p.psend {
		p.startSend(seq, flips)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		panic("mpi: persistent receive started twice without Wait")
	}
	p.active = true
	p.cycle++
	st := &p.cur
	select {
	case <-st.done: // left by a Wait that found the last cycle complete
	default:
	}
	st.complete, st.nparts, st.narrived, st.elems, st.fseq = false, -1, 0, 0, 0
	st.corrupt, st.overflow = nil, ""
	// Land the frames that arrived ahead of this Start, in arrival order.
	kept := p.parked[:0]
	for _, f := range p.parked {
		if f.h.cyc != p.cycle {
			kept = append(kept, f)
			continue
		}
		p.land(f.kind, &f.h, f.data, f.flips)
		p.spare = append(p.spare, f.data)
	}
	clear(p.parked[len(kept):])
	p.parked = kept
}

// startSend arms a send cycle. An unpartitioned send is eager: the whole
// payload goes on the wire here.
func (p *tcpPers) startSend(seq uint64, flips []fault.ByteFlip) {
	p.mu.Lock()
	if p.active {
		p.mu.Unlock()
		panic("mpi: persistent send started twice without Wait")
	}
	p.active = true
	p.cycle++
	p.seq = seq
	p.flips = flips
	if p.bounds != nil {
		clear(p.ready)
		p.nready = 0
		select {
		case <-p.sendDone: // left by a Wait that found the last cycle sent
		default:
		}
		p.mu.Unlock()
		return
	}
	n := p.n
	h := tcpHdr{
		src: p.key.src, dst: p.key.dst, tag: p.key.tag, slot: p.key.slot,
		epoch: n.epoch.Load(), inc: n.inc, fseq: seq, cyc: p.cycle,
	}
	p.mu.Unlock()
	// Outside the lock: a write can block on a redial, and the watchdog's
	// pendingOps must still get in. Rebind panics on an active send, so
	// p.buf is stable until Wait.
	n.sendData(p.key.dst, tfPData, &h, p.buf, flips)
}

// preadyRange ships each newly ready partition as one frame, written
// outside the lock (see startSend). The cycle's Wait completes only once
// every partition is ready and no Pready is still writing.
func (p *tcpPers) preadyRange(r *Request, lo, hi int) {
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
		if p.ready[i] {
			p.mu.Unlock()
			panic(fmt.Sprintf("mpi: partition %d marked ready twice in one cycle", i))
		}
		p.ready[i] = true
		p.nready++
	}
	p.sending++
	n := p.n
	h := tcpHdr{
		src: p.key.src, dst: p.key.dst, tag: p.key.tag, slot: p.key.slot,
		epoch: n.epoch.Load(), inc: n.inc, fseq: p.seq, cyc: p.cycle, nparts: np,
	}
	bounds, buf, flips := p.bounds, p.buf, p.flips
	p.mu.Unlock()
	for i := lo; i < hi; i++ {
		loE, hiE := bounds[i], bounds[i+1]
		h.offE, h.partLo, h.partHi = loE, i, i+1
		n.sendData(h.dst, tfPPart, &h, buf[loE:hiE], flipsInRange(flips, 8*loE, 8*hiE))
		p.c.fl.Record(flight.KindPready, int32(h.dst), int32(h.tag), int32(i), int64(8*(hiE-loE)), h.fseq)
	}
	p.mu.Lock()
	p.sending--
	if p.nready == np && p.sending == 0 {
		p.signalSent()
	}
	p.mu.Unlock()
	p.c.world.progressTick()
}

func (p *tcpPers) parrived(r *Request, i int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nparts == 0 {
		panic("mpi: Parrived with no partitioned sender matched")
	}
	if p.nparts > 0 && i >= p.nparts {
		panic(fmt.Sprintf("mpi: Parrived partition %d out of range (%d partitions)", i, p.nparts))
	}
	st := &p.cur
	if !p.active || st.nparts < 0 || i < 0 || i >= len(st.arrived) {
		return false
	}
	return st.arrived[i]
}

func (p *tcpPers) partitions(r *Request) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.psend {
		if p.bounds == nil {
			return 0
		}
		return len(p.bounds) - 1
	}
	if p.nparts < 0 {
		return 0
	}
	return p.nparts
}

func (p *tcpPers) rebind(r *Request, buf []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		if p.psend {
			panic("mpi: Rebind on an active persistent send")
		}
		panic("mpi: Rebind on an active persistent receive")
	}
	p.buf = buf
}

// free detaches the endpoint. Unlike chan, a freed unpaired endpoint stays
// registered at the coordinator until the next epoch — its frames are
// dropped here and it is excluded from pending accounting, which is the
// observable contract.
func (p *tcpPers) free(r *Request) {
	p.mu.Lock()
	p.freed = true
	p.buf = nil
	p.parked, p.spare = nil, nil
	p.mu.Unlock()
}

// ---- reqOp ----

// doneCh returns the channel the current cycle's Wait blocks on, or nil
// when there is nothing to wait for: an eager unpartitioned send, or a
// cycle already complete.
func (p *tcpPers) doneCh() chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.psend {
		if p.bounds == nil || (p.nready == len(p.bounds)-1 && p.sending == 0) {
			return nil
		}
		return p.sendDone
	}
	if p.cur.complete {
		return nil
	}
	return p.cur.done
}

func (p *tcpPers) block(r *Request) {
	if done := p.doneCh(); done != nil {
		select {
		case <-done:
		case <-p.c.world.abortCh:
			panic(p.c.world.Aborted())
		}
	}
	if !p.psend {
		p.raiseDelivered()
	}
}

func (p *tcpPers) blockTimeout(r *Request, d time.Duration) error {
	if done := p.doneCh(); done != nil {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-done:
		case <-p.c.world.abortCh:
			return p.c.world.Aborted()
		case <-t.C:
			return &TimeoutError{After: d, Op: p.opName(r)}
		}
	}
	if !p.psend {
		p.raiseDelivered()
	}
	return nil
}

func (p *tcpPers) raiseDelivered() {
	p.mu.Lock()
	overflow, corrupt := p.cur.overflow, p.cur.corrupt
	p.mu.Unlock()
	if overflow != "" {
		panic(overflow)
	}
	if corrupt != nil {
		p.c.world.abort(p.c.rank, corrupt)
		panic(p.c.world.Aborted())
	}
}

func (p *tcpPers) finish(r *Request) int {
	p.c.world.progressTick()
	p.mu.Lock()
	p.active = false
	if p.psend {
		p.mu.Unlock()
		return 0
	}
	nel := p.cur.elems
	p.mu.Unlock()
	p.c.recvMsgs.Add(1)
	p.c.recvBytes.Add(int64(8 * nel))
	if p.c.m != nil {
		p.c.m.recvBytes.Observe(float64(8 * nel))
	}
	return nel
}

func (p *tcpPers) opName(r *Request) string {
	if p.psend {
		return fmt.Sprintf("wait psend dst=%d tag=%d", r.peer, r.tag)
	}
	return fmt.Sprintf("wait precv src=%d tag=%d", r.peer, r.tag)
}

// ---- introspection ----

func (p *tcpPers) pendingOps() []PendingOp {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return nil
	}
	src, dst, tag := p.key.src, p.key.dst, p.key.tag
	bytes := int64(8 * len(p.buf))
	if p.psend {
		if !p.paired {
			return []PendingOp{{Kind: "psend-unpaired", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
		}
		if p.active && p.bounds != nil {
			np := len(p.bounds) - 1
			if p.nready < np {
				var unready []int
				for i := 0; i < np; i++ {
					if !p.ready[i] {
						unready = append(unready, i)
					}
				}
				return []PendingOp{{Kind: "psend-partial", Src: src, Dst: dst, Tag: tag, Bytes: bytes,
					Persistent: true, Partitions: np, Ready: p.nready, Unready: unready}}
			}
			return nil
		}
		if p.active {
			return []PendingOp{{Kind: "psend-active", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
		}
		return nil
	}
	if !p.paired {
		return []PendingOp{{Kind: "precv-unpaired", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
	}
	if p.active {
		if !p.cur.complete {
			return []PendingOp{{Kind: "precv-active", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
		}
	}
	return nil
}

func (p *tcpPers) pendingState() (unmatched, live int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return 0, 0
	}
	if !p.paired {
		unmatched = 1
	}
	return unmatched, 1
}

func flipsInRange(flips []fault.ByteFlip, lo, hi int) []fault.ByteFlip {
	var out []fault.ByteFlip
	for _, f := range flips {
		if f.Off >= lo && f.Off < hi {
			out = append(out, f)
		}
	}
	return out
}
