package mpi

import (
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/flight"
)

// ringEvents filters one kind out of a ring's retained events.
func ringEvents(g *flight.Ring, k flight.Kind) []flight.Event {
	var out []flight.Event
	for _, e := range g.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestFlightOneShotExchange: an Isend/Irecv pair records the full event
// chain — send-post with a fresh sequence stamp on the sender, recv-post
// then a delivery carrying that same stamp on the receiver — the linkage
// the cross-rank causal analysis is built on.
func TestFlightOneShotExchange(t *testing.T) {
	w := NewWorld(2)
	rec := flight.New(2, 64)
	w.SetFlight(rec)
	if w.Flight() != rec {
		t.Fatal("Flight() did not return the attached recorder")
	}
	w.Run(func(c *Comm) {
		buf := make([]float64, 4)
		for cycle := 0; cycle < 3; cycle++ {
			if c.Rank() == 0 {
				c.Isend(1, 9, buf).Wait()
			} else {
				c.Irecv(0, 9, buf).Wait()
			}
		}
	})
	sends := ringEvents(rec.Rank(0), flight.KindSendPost)
	if len(sends) != 3 {
		t.Fatalf("sender recorded %d send-posts, want 3", len(sends))
	}
	for i, e := range sends {
		if e.Seq != uint64(i+1) || e.Peer != 1 || e.Tag != 9 || e.Bytes != 32 {
			t.Fatalf("send-post %d = %+v, want seq=%d peer=1 tag=9 bytes=32", i, e, i+1)
		}
	}
	recvs := ringEvents(rec.Rank(1), flight.KindRecvPost)
	if len(recvs) != 3 || recvs[0].Peer != 0 || recvs[0].Tag != 9 {
		t.Fatalf("receiver recv-posts = %+v, want 3 from peer 0 tag 9", recvs)
	}
	delivers := ringEvents(rec.Rank(1), flight.KindDeliver)
	if len(delivers) != 3 {
		t.Fatalf("receiver recorded %d deliveries, want 3", len(delivers))
	}
	for i, e := range delivers {
		if e.Seq != uint64(i+1) || e.Peer != 0 || e.Tag != 9 {
			t.Fatalf("delivery %d = %+v, want sender's seq=%d", i, e, i+1)
		}
	}
	waits := ringEvents(rec.Rank(0), flight.KindWaitStart)
	dones := ringEvents(rec.Rank(0), flight.KindWaitDone)
	if len(waits) != 3 || len(dones) != 3 {
		t.Fatalf("sender wait events = %d starts / %d dones, want 3/3", len(waits), len(dones))
	}
}

// TestFlightPersistentRing drives an 8-rank neighbour ring of persistent
// channels and checks every ring's event accounting: one send-post per
// cycle with increasing seq, and each cycle closing with one delivery
// carrying its sender's stamp.
func TestFlightPersistentRing(t *testing.T) {
	const (
		ranks  = 8
		cycles = 3
		n      = 16
	)
	w := NewWorld(ranks)
	rec := flight.New(ranks, 512)
	w.SetFlight(rec)
	w.Run(func(c *Comm) {
		dst := (c.Rank() + 1) % ranks
		src := (c.Rank() + ranks - 1) % ranks
		send := c.SendInit(dst, 41, make([]float64, n))
		recv := c.RecvInit(src, 41, make([]float64, n))
		for cy := 0; cy < cycles; cy++ {
			recv.Start()
			send.Start()
			send.Wait()
			recv.Wait()
			c.Barrier()
		}
	})
	for r := 0; r < ranks; r++ {
		g := rec.Rank(r)
		sends := ringEvents(g, flight.KindSendPost)
		if len(sends) != cycles {
			t.Fatalf("rank %d: %d send-posts, want %d", r, len(sends), cycles)
		}
		for i, e := range sends {
			if e.Seq != uint64(i+1) {
				t.Fatalf("rank %d send-post %d seq = %d, want %d", r, i, e.Seq, i+1)
			}
		}
		delivers := ringEvents(g, flight.KindDeliver)
		if len(delivers) != cycles {
			t.Fatalf("rank %d: %d cycle deliveries, want %d", r, len(delivers), cycles)
		}
		for i, e := range delivers {
			if e.Seq != uint64(i+1) || int(e.Peer) != (r+ranks-1)%ranks {
				t.Fatalf("rank %d delivery %d = %+v, want seq=%d from rank %d",
					r, i, e, i+1, (r+ranks-1)%ranks)
			}
		}
	}
}

// TestFlightStallReportEmbedsTail: a live stall with the recorder attached
// embeds the stalled rank's ring tail into the watchdog's StallReport —
// compact event lines an operator sees right in the abort message.
func TestFlightStallReportEmbedsTail(t *testing.T) {
	w := NewWorld(2)
	rec := flight.New(2, 64)
	w.SetFlight(rec)
	w.SetWatchdog(50*time.Millisecond, nil)
	ae := runWorldExpectAbort(t, w, 10*time.Second, func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 3, make([]float64, 2)).Wait()
		} else {
			c.Irecv(0, 4, make([]float64, 2)).Wait()
		}
	})
	rep, ok := ae.Value.(*StallReport)
	if !ok {
		t.Fatalf("abort value %T, want *StallReport", ae.Value)
	}
	if len(rep.FlightTail) == 0 {
		t.Fatalf("StallReport has no flight tail:\n%v", rep)
	}
	// The victim is the first sorted pending op's destination; both pending
	// ops here have Dst=1 or 2... the report is sorted by kind, so
	// recv-posted (0,1,4) sorts before send-unmatched; its Dst rank 1 posted
	// an Irecv, which must appear in the tail.
	if rep.FlightRank != rep.Pending[0].Dst {
		t.Errorf("FlightRank = %d, want first pending op's dst %d", rep.FlightRank, rep.Pending[0].Dst)
	}
	var sawRecv bool
	for _, line := range rep.FlightTail {
		if line == "recv-post peer=0 tag=4 bytes=16" {
			sawRecv = true
		}
	}
	if !sawRecv {
		t.Errorf("flight tail lacks the stalled recv-post:\n%v", rep.FlightTail)
	}
	if got := rep.String(); !strings.Contains(got, "flight tail (rank") {
		t.Errorf("String() lacks flight tail section:\n%s", got)
	}
}
