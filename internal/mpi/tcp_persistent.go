package mpi

import (
	"github.com/bricklab/brick/internal/fault"
)

// Persistent and partitioned traffic over tcp. Every frame of a channel
// carries the channel id persistent.go assigned at SendInit and the
// sender's cycle number; a receive side takes the frames of the id it was
// bound to at the match.
//
// Sends are eager like one-shot sends, and batched by call: each span the
// cycle puts becomes one frame — the whole payload as tfPData at an
// unpartitioned Start, each partition span as tfPPart at its Pready,
// offset-addressed into the receive buffer — queued in the batch of the
// API call that put it. The call flushes its batch before it returns: per
// destination one vectored write of every frame's headers, its payload
// bytes viewed in place in the send buffer, and its flips; each span is
// sent once that write returned. So a Preadyall over a tile's partitions
// costs one write per peer, not one per partition, and still nothing is
// held back past the call that readied it. A frame lands — its bytes
// copied once, straight into the receive buffer — if its cycle is the
// open receive cycle, parks on the link if its cycle has not started (a
// sender running ahead of the receiver's Start), and is dropped if its
// cycle is over; frames for a channel no receive side has bound yet park
// in the node's early queue until bind drains them.

// tcpLink is one endpoint's data path. parked and spare are guarded by the
// endpoint's lock.
type tcpLink struct {
	n  *tcpNode
	e  *cycle
	id uint64 // send: the channel id every frame carries

	// parked holds frames of later cycles in arrival order: a frame may land
	// in the receive buffer only once its cycle starts, since before that
	// the buffer still belongs to the rank (a restore writes it, the
	// previous step's compute reads it). spare recycles their byte buffers.
	parked []earlyPersFrame
	spare  [][]byte
}

func (n *tcpNode) newLink(e *cycle) link {
	return &tcpLink{n: n, e: e, id: e.r.pend.id}
}

// bind takes the frames of the matched sender's channel id, first those
// that beat the match to this node.
func (l *tcpLink) bind(e *cycle, s *pend) {
	n := l.n
	n.mu.Lock()
	defer n.mu.Unlock()
	n.persRecv[s.id] = l
	for _, f := range n.early[s.id] {
		l.deliver(f.kind, &f.h, f.wire, f.flips)
	}
	delete(n.early, s.id)
}

// put queues one span as a frame in the call's batch; the flush writes it
// and reports it sent.
func (l *tcpLink) put(e *cycle, part int, b *batch) {
	n, r := l.n, e.r
	h := tcpHdr{
		src: r.comm.rank, dst: r.peer, tag: r.tag, id: l.id,
		epoch: n.epoch.Load(), inc: n.inc, fseq: e.seq, cyc: e.n,
	}
	kind, flips := byte(tfPData), e.flips
	lo, hi := e.span(part)
	if part >= 0 {
		kind, flips = tfPPart, flipsInRange(flips, 8*lo, 8*hi)
		h.offE, h.partLo, h.partHi, h.nparts = lo, part, part+1, e.parts
	}
	b.tcp = append(b.tcp, tcpFrame{n: n, kind: kind, h: h, data: e.buf[lo:hi], flips: flips, e: e})
}

// poll lands the frames parked for the cycle that just opened, in arrival
// order. Frames of an open cycle land as they arrive, so waits block.
func (l *tcpLink) poll(e *cycle) bool {
	if len(l.parked) == 0 {
		return false
	}
	k := e.n
	kept := l.parked[:0]
	for _, f := range l.parked {
		if f.h.cyc != k {
			kept = append(kept, f)
			continue
		}
		l.land(f.kind, &f.h, f.wire, f.flips)
		l.spare = append(l.spare, f.wire)
	}
	clear(l.parked[len(kept):])
	l.parked = kept
	return false
}

// deliverPers routes an arrived persistent frame (n.mu held). wire views
// the reader's frame buffer: whatever outlives this call is copied.
func (n *tcpNode) deliverPers(kind byte, h *tcpHdr, wire []byte, flips []fault.ByteFlip) {
	l := n.persRecv[h.id]
	if l == nil {
		n.early[h.id] = append(n.early[h.id], &earlyPersFrame{
			kind: kind, h: *h, wire: append([]byte(nil), wire...), flips: flips})
		return
	}
	l.deliver(kind, h, wire, flips)
}

// deliver takes one frame: it lands now if its cycle is the open one,
// parks if its cycle has not started, and is dropped if its cycle is over
// or the endpoint was freed.
func (l *tcpLink) deliver(kind byte, h *tcpHdr, wire []byte, flips []fault.ByteFlip) {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	switch k := e.n; {
	case e.freed:
		l.parked, l.spare = nil, nil
	case h.cyc == k:
		l.land(kind, h, wire, flips)
	case h.cyc > k:
		var keep []byte
		if i := len(l.spare); i > 0 {
			keep, l.spare = l.spare[i-1], l.spare[:i-1]
		}
		l.parked = append(l.parked, earlyPersFrame{kind: kind, h: *h, wire: append(keep[:0], wire...), flips: flips})
	}
}

// land hands one frame of the open cycle to the cycle. e.mu held.
func (l *tcpLink) land(kind byte, h *tcpHdr, wire []byte, flips []fault.ByteFlip) {
	part := -1
	if kind == tfPPart {
		part = h.partLo
	}
	l.e.land(part, h.offE, payload{wire: wire, flips: flips}, h.fseq)
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
