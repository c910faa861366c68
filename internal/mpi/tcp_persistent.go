package mpi

import (
	"github.com/bricklab/brick/internal/fault"
)

// Persistent traffic over tcp. Every frame of a channel carries the
// channel id persistent.go assigned at SendInit and the sender's cycle
// number; a receive side takes the frames of the id it was bound to at the
// match.
//
// Sends are eager like one-shot sends, and batched by call: the payload a
// Start puts becomes one tfPData frame, queued in the batch of the API call
// that put it. The call flushes its batch before it returns: per
// destination one vectored write of every frame's headers, its payload
// bytes viewed in place in the send buffer, and its flips; each payload is
// sent once that write returned. So a Startall over a plan's sends costs
// one write per peer, not one per message. A frame lands — its bytes
// copied once, straight into the receive buffer — if its cycle is the open
// receive cycle, parks on the link if its cycle has not started (a sender
// running ahead of the receiver's Start), and is dropped if its cycle is
// over; frames for a channel no receive side has bound yet park in the
// node's early queue until bind drains them.

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
		l.deliver(&f.h, f.wire, f.flips)
	}
	delete(n.early, s.id)
}

// put queues the payload as a frame in the call's batch; the flush writes
// it and reports it sent.
func (l *tcpLink) put(e *cycle, b *batch) {
	n, r := l.n, e.r
	h := tcpHdr{
		src: r.comm.rank, dst: r.peer, tag: r.tag, id: l.id,
		epoch: n.epoch.Load(), inc: n.inc, fseq: e.seq, cyc: e.n,
	}
	b.tcp = append(b.tcp, tcpFrame{n: n, kind: tfPData, h: h, data: e.buf, flips: e.flips, e: e})
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
		l.e.land(payload{wire: f.wire, flips: f.flips}, f.h.fseq)
		l.spare = append(l.spare, f.wire)
	}
	clear(l.parked[len(kept):])
	l.parked = kept
	return false
}

// deliverPers routes an arrived persistent frame (n.mu held). wire views
// the reader's frame buffer: whatever outlives this call is copied.
func (n *tcpNode) deliverPers(h *tcpHdr, wire []byte, flips []fault.ByteFlip) {
	l := n.persRecv[h.id]
	if l == nil {
		n.early[h.id] = append(n.early[h.id], &earlyPersFrame{
			h: *h, wire: append([]byte(nil), wire...), flips: flips})
		return
	}
	l.deliver(h, wire, flips)
}

// deliver takes one frame: it lands now if its cycle is the open one,
// parks if its cycle has not started, and is dropped if its cycle is over
// or the endpoint was freed.
func (l *tcpLink) deliver(h *tcpHdr, wire []byte, flips []fault.ByteFlip) {
	e := l.e
	e.mu.Lock()
	defer e.mu.Unlock()
	switch k := e.n; {
	case e.freed:
		l.parked, l.spare = nil, nil
	case h.cyc == k:
		e.land(payload{wire: wire, flips: flips}, h.fseq)
	case h.cyc > k:
		var keep []byte
		if i := len(l.spare); i > 0 {
			keep, l.spare = l.spare[i-1], l.spare[:i-1]
		}
		l.parked = append(l.parked, earlyPersFrame{h: *h, wire: append(keep[:0], wire...), flips: flips})
	}
}
