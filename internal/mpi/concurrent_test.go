package mpi

import (
	"sync"
	"testing"
)

// TestConcurrentPointToPoint drives Isend/Irecv/Wait from several goroutines
// of the same rank at once, on every transport — the shape of comm/compute
// overlap, where an exchange is posted and completed while compute workers
// are active. Run under -race this pins down the counter and matching
// paths, including shmem's, where one goroutine's Wait may deliver another
// goroutine's receive.
func TestConcurrentPointToPoint(t *testing.T) {
	const (
		ranks    = 4
		posters  = 4 // concurrent posting goroutines per rank
		perGo    = 8 // messages per posting goroutine
		elements = 64
	)
	forEachTransport(t, ranks, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			peer := (c.Rank() + 1) % ranks
			prev := (c.Rank() + ranks - 1) % ranks
			var wg sync.WaitGroup
			recvBufs := make([][][]float64, posters)
			for g := 0; g < posters; g++ {
				g := g
				recvBufs[g] = make([][]float64, perGo)
				wg.Add(2)
				// One goroutine posts and waits sends, another receives: the
				// Comm is shared by all of them concurrently.
				go func() {
					defer wg.Done()
					var reqs []*Request
					for m := 0; m < perGo; m++ {
						buf := make([]float64, elements)
						for i := range buf {
							buf[i] = float64(c.Rank()*1000 + g*100 + m)
						}
						reqs = append(reqs, c.Isend(peer, g*perGo+m, buf))
					}
					Waitall(reqs)
				}()
				go func() {
					defer wg.Done()
					var reqs []*Request
					for m := 0; m < perGo; m++ {
						recvBufs[g][m] = make([]float64, elements)
						reqs = append(reqs, c.Irecv(prev, g*perGo+m, recvBufs[g][m]))
					}
					Waitall(reqs)
				}()
			}
			wg.Wait()
			for g := 0; g < posters; g++ {
				for m := 0; m < perGo; m++ {
					want := float64(prev*1000 + g*100 + m)
					if got := recvBufs[g][m][0]; got != want {
						t.Errorf("rank %d goroutine %d msg %d: got %v want %v", c.Rank(), g, m, got, want)
					}
				}
			}
			tr := c.TrafficSnapshot()
			if got, want := tr.SentMsgs, int64(posters*perGo); got != want {
				t.Errorf("rank %d sent %d messages, want %d", c.Rank(), got, want)
			}
			if got, want := tr.RecvMsgs, int64(posters*perGo); got != want {
				t.Errorf("rank %d received %d messages, want %d", c.Rank(), got, want)
			}
			if got, want := tr.SentBytes, int64(8*elements*posters*perGo); got != want {
				t.Errorf("rank %d sent %d bytes, want %d", c.Rank(), got, want)
			}
		})
	})
}

// TestConcurrentTrafficSnapshot checks the snapshot-and-reset API is
// lossless against in-flight traffic: snapshots taken while another
// goroutine is sending must partition the counts — every message lands in
// exactly one snapshot, none are dropped by the reset (the race the old
// read-getters-then-ResetCounters pattern had).
func TestConcurrentTrafficSnapshot(t *testing.T) {
	const msgs = 256
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			buf := make([]float64, 8)
			for m := 0; m < msgs; m++ {
				c.Recv(0, m, buf)
			}
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for m := 0; m < msgs; m++ {
				c.Send(1, m, make([]float64, 8))
			}
		}()
		var total Traffic
		add := func(tr Traffic) {
			total.SentMsgs += tr.SentMsgs
			total.SentBytes += tr.SentBytes
		}
		for i := 0; i < 100; i++ {
			add(c.TrafficSnapshot()) // drain concurrently with the sender
		}
		<-done
		add(c.TrafficSnapshot())
		if total.SentMsgs != msgs || total.SentBytes != 8*8*msgs {
			t.Errorf("snapshots lost traffic: %d msgs %d bytes, want %d/%d",
				total.SentMsgs, total.SentBytes, msgs, 8*8*msgs)
		}
		if tr := c.TrafficSnapshot(); tr != (Traffic{}) {
			t.Errorf("counters not drained: %+v", tr)
		}
	})
}
