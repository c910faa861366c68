package flight

import (
	"fmt"
)

// This file reconstructs cross-rank causal chains from a flight-recorder
// snapshot. Each send is stamped with a per-(src, dst, tag) sequence number
// and each delivery event carries its sender's stamp, so a backward walk
// from a stalled operation can hop rings: local predecessor events until a
// delivery, then the exact send-post on the peer that produced it, then that
// rank's predecessors, and so on. The walk terminates at ring age-out or the
// chain cap, and the last hop that should have happened but never did is the
// blamed edge.

// CausalLink is one hop of a reconstructed chain.
type CausalLink struct {
	Rank  int // rank whose ring recorded the event
	Event Event
	// Cross marks a hop that jumped rings: this link is the peer's
	// send-post matched (by peer, tag, seq) to the previous link's delivery.
	Cross bool
}

// CausalChain is the reconstructed history of one pending operation: the
// events leading (oldest first) to the terminal event — the stalled rank's
// posted-but-never-completed operation — plus a one-line blame for the edge
// that never fired, when the rings contain enough evidence to name it.
type CausalChain struct {
	Pending PendingRef
	Links   []CausalLink
	Blame   string
}

// maxChainLen caps the backward walk; deep histories age out of the rings
// anyway, and the forensically interesting part is the last few hops.
const maxChainLen = 24

// CausalChains reconstructs one chain per pending operation in the
// snapshot, in the snapshot's (sorted) pending order.
func CausalChains(s *Snapshot) []CausalChain {
	rings := map[int][]Event{}
	for _, rl := range s.Ranks {
		rings[rl.Rank] = rl.Events
	}
	var out []CausalChain
	for _, p := range s.Pending {
		ch := CausalChain{Pending: p}
		if rank, idx, ok := terminalEvent(rings, p); ok {
			ch.Links = walkBack(rings, rank, idx)
		}
		ch.Blame = blameEdge(rings, p)
		out = append(out, ch)
	}
	return out
}

// terminalEvent locates the pending operation's terminal event: the last
// matching recv-post on the destination for receive-side kinds, the last
// matching send-post on the source for send-side kinds. Wildcard receives
// (peer or tag -1 in the ring) match any pending src/tag.
func terminalEvent(rings map[int][]Event, p PendingRef) (rank, idx int, ok bool) {
	switch p.Kind {
	case PendRecvPosted, PendPrecvActive, PendPrecvUnpaired:
		evs := rings[p.Dst]
		for i := len(evs) - 1; i >= 0; i-- {
			e := evs[i]
			if e.Kind == KindRecvPost &&
				(e.Peer == int32(p.Src) || e.Peer < 0) &&
				(e.Tag == int32(p.Tag) || e.Tag < 0) {
				return p.Dst, i, true
			}
		}
	case PendSendUnmatched, PendPsendActive, PendPsendUnpaired:
		evs := rings[p.Src]
		for i := len(evs) - 1; i >= 0; i-- {
			e := evs[i]
			if e.Kind == KindSendPost && e.Peer == int32(p.Dst) && e.Tag == int32(p.Tag) {
				return p.Src, i, true
			}
		}
	}
	return 0, 0, false
}

// walkBack collects up to maxChainLen events ending at rings[rank][idx],
// hopping to the peer's matching send-post at each seq-stamped delivery.
// Returned oldest first.
func walkBack(rings map[int][]Event, rank, idx int) []CausalLink {
	var rev []CausalLink
	cross := false
	for idx >= 0 && len(rev) < maxChainLen {
		e := rings[rank][idx]
		rev = append(rev, CausalLink{Rank: rank, Event: e, Cross: cross})
		cross = false
		if e.Kind == KindDeliver && e.Seq > 0 && e.Peer >= 0 {
			if j := findSendPost(rings[int(e.Peer)], rank, e.Tag, e.Seq); j >= 0 {
				rank, idx, cross = int(e.Peer), j, true
				continue
			}
		}
		idx--
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// findSendPost locates the send-post stamped (dst, tag, seq) in a ring, or
// -1 if it aged out (or the ring never saw it).
func findSendPost(evs []Event, dst int, tag int32, seq uint64) int {
	for i := len(evs) - 1; i >= 0; i-- {
		e := evs[i]
		if e.Kind == KindSendPost && e.Peer == int32(dst) && e.Tag == tag && e.Seq == seq {
			return i
		}
	}
	return -1
}

// blameEdge names the causal edge that never fired, from ring evidence:
// a send never posted, or a posted send never delivered. Empty when the
// rings hold no decisive evidence.
func blameEdge(rings map[int][]Event, p PendingRef) string {
	switch p.Kind {
	case PendRecvPosted, PendPrecvActive, PendPrecvUnpaired:
		var lastSend *Event
		for _, e := range rings[p.Src] {
			if e.Kind == KindSendPost && e.Peer == int32(p.Dst) && e.Tag == int32(p.Tag) {
				ev := e
				lastSend = &ev
			}
		}
		if lastSend == nil {
			return fmt.Sprintf("rank %d never posted a send tag=%d to rank %d",
				p.Src, p.Tag, p.Dst)
		}
		for _, e := range rings[p.Dst] {
			if e.Kind == KindDeliver && e.Peer == int32(p.Src) &&
				e.Tag == int32(p.Tag) && e.Seq == lastSend.Seq {
				return "" // delivered; the stall is elsewhere
			}
		}
		return fmt.Sprintf("rank %d posted send tag=%d seq=%d to rank %d but it was never delivered",
			p.Src, p.Tag, lastSend.Seq, p.Dst)
	case PendSendUnmatched, PendPsendActive, PendPsendUnpaired:
		for _, e := range rings[p.Dst] {
			if e.Kind == KindRecvPost &&
				(e.Peer == int32(p.Src) || e.Peer < 0) &&
				(e.Tag == int32(p.Tag) || e.Tag < 0) {
				return ""
			}
		}
		return fmt.Sprintf("rank %d never posted a matching receive for tag=%d from rank %d",
			p.Dst, p.Tag, p.Src)
	}
	return ""
}
