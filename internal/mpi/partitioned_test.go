package mpi

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// mustPanic runs fn and checks it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Errorf("no panic; want one containing %q", want)
		} else if s, ok := p.(string); !ok || !strings.Contains(s, want) {
			t.Errorf("panic %v; want one containing %q", p, want)
		}
	}()
	fn()
}

// TestPsendInitBoundsValidation checks that malformed partition bounds are
// rejected at plan-build time, before any endpoint registers.
func TestPsendInitBoundsValidation(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		buf := make([]float64, 8)
		mustPanic(t, "at least one partition", func() { c.PsendInit(0, 1, buf, []int{0}) })
		mustPanic(t, "span the buffer exactly", func() { c.PsendInit(0, 1, buf, []int{1, 8}) })
		mustPanic(t, "span the buffer exactly", func() { c.PsendInit(0, 1, buf, []int{0, 7}) })
		mustPanic(t, "strictly increasing", func() { c.PsendInit(0, 1, buf, []int{0, 4, 4, 8}) })
		mustPanic(t, "strictly increasing", func() { c.PsendInit(0, 1, buf, []int{0, 5, 3, 8}) })
	})
}

// TestPartitionedBoundsSizeCheckAtMatch checks the partition-vs-buffer size
// cross-check fires when the endpoints match, mirroring the overflow check.
func TestPartitionedBoundsSizeCheckAtMatch(t *testing.T) {
	forEachTransport(t, 1, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			send := c.PsendInit(0, 9, make([]float64, 8), []int{0, 3, 8})
			if got := send.Partitions(); got != 2 {
				t.Errorf("Partitions() = %d, want 2", got)
			}
			recv := c.PrecvInit(0, 9, make([]float64, 8))
			if got := recv.Partitions(); got != 2 {
				t.Errorf("receive side Partitions() = %d, want 2", got)
			}
		})
	})
}

// TestPartitionedOutOfOrderDelivery drives a partitioned channel with
// partitions readied out of order and checks Parrived tracks each Pready
// exactly. A partition has arrived when its Pready returns on a channel to
// the rank itself and on chan and shmem (chan copies inline, shmem's
// Parrived lands the staged span); tcp delivers to another rank through
// the receiving node's reader, so there Parrived is polled until the
// partition lands.
func TestPartitionedOutOfOrderDelivery(t *testing.T) {
	forEachPair(t, func(t *testing.T, s, r *Comm) {
		const n = 12
		arrived := func(recv *Request, p int) bool {
			if s == r || s.world.Transport() != "tcp" {
				return recv.Parrived(p)
			}
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
				if recv.Parrived(p) {
					return true
				}
			}
			return false
		}
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := s.PsendInit(r.Rank(), 3, sbuf, []int{0, 4, 8, n})
		recv := r.PrecvInit(s.Rank(), 3, rbuf)
		for cycle := 0; cycle < 3; cycle++ {
			for i := range sbuf {
				sbuf[i] = float64(100*cycle + i)
			}
			for i := range rbuf {
				rbuf[i] = -1
			}
			recv.Start()
			send.Start()
			// Start must publish nothing: no partition is ready yet.
			for p := 0; p < 3; p++ {
				if recv.Parrived(p) {
					t.Fatalf("cycle %d: partition %d arrived before Pready", cycle, p)
				}
			}
			for _, p := range []int{2, 0, 1} {
				send.Pready(p)
				if !arrived(recv, p) {
					t.Fatalf("cycle %d: partition %d not arrived after Pready", cycle, p)
				}
				lo, hi := 4*p, 4*p+4
				for i := lo; i < hi; i++ {
					if rbuf[i] != sbuf[i] {
						t.Fatalf("cycle %d partition %d elem %d: got %v want %v", cycle, p, i, rbuf[i], sbuf[i])
					}
				}
			}
			send.Wait()
			recv.Wait()
		}
	})
}

// TestPartitionedReadyBeforeRecvStart marks every partition ready while the
// receiver has not started its cycle yet; the deliveries must be deferred
// and flushed when the receive side finally starts.
func TestPartitionedReadyBeforeRecvStart(t *testing.T) {
	forEachPair(t, func(t *testing.T, s, r *Comm) {
		const n = 6
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := s.PsendInit(r.Rank(), 4, sbuf, []int{0, 2, n})
		recv := r.PrecvInit(s.Rank(), 4, rbuf)
		for i := range sbuf {
			sbuf[i] = float64(i + 1)
		}
		send.Start()
		send.PreadyAll()
		time.Sleep(time.Millisecond) // a frame on its way has time to arrive
		for i := range rbuf {
			if rbuf[i] != 0 {
				t.Fatalf("elem %d delivered before receive started", i)
			}
		}
		recv.Start() // flushes both deferred partitions
		send.Wait()
		recv.Wait()
		for i := range rbuf {
			if rbuf[i] != sbuf[i] {
				t.Fatalf("elem %d: got %v want %v", i, rbuf[i], sbuf[i])
			}
		}
	})
}

// TestPartitionedTwoRankPipeline overlaps partition firing with receipt
// across two real ranks and many reuse cycles; run under -race this guards
// the Pready/Parrived handoff across goroutines.
func TestPartitionedTwoRankPipeline(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		const n, cycles = 64, 25
		w.Run(func(c *Comm) {
			peer := 1 - c.Rank()
			sbuf := make([]float64, n)
			rbuf := make([]float64, n)
			bounds := []int{0, 16, 24, 48, n}
			send := c.PsendInit(peer, 11, sbuf, bounds)
			recv := c.PrecvInit(peer, 11, rbuf)
			var wg sync.WaitGroup
			for s := 0; s < cycles; s++ {
				for i := range sbuf {
					sbuf[i] = float64(1000*c.Rank() + 10*s + i%10)
				}
				recv.Start()
				send.Start()
				// Fire partitions from two worker goroutines at once, as pool
				// tiles do: one a Pready at a time, one a Preadyall.
				wg.Add(2)
				go func() {
					defer wg.Done()
					send.Pready(3)
					send.Pready(1)
				}()
				go func() {
					defer wg.Done()
					Preadyall([]*Request{send, send}, []int{2, 0})
				}()
				send.Wait()
				recv.Wait()
				wg.Wait()
				for i := range rbuf {
					if want := float64(1000*peer + 10*s + i%10); rbuf[i] != want {
						t.Fatalf("rank %d cycle %d elem %d: got %v want %v", c.Rank(), s, i, rbuf[i], want)
					}
				}
				c.Barrier()
			}
		})
	})
}

// TestPartitionedMisusePanics checks the runtime guards on the Pready /
// Preadyall / Parrived surface. A Preadyall entry panics as its Pready
// would, and the entries before it still go out.
func TestPartitionedMisusePanics(t *testing.T) {
	forEachTransport(t, 1, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			sbuf := make([]float64, 4)
			rbuf := make([]float64, 4)
			send := c.PsendInit(0, 5, sbuf, []int{0, 2, 4})
			recv := c.PrecvInit(0, 5, rbuf)
			all := func(reqs []*Request, parts ...int) func() {
				return func() { Preadyall(reqs, parts) }
			}
			sends := []*Request{send}

			mustPanic(t, "before Start", func() { send.Pready(0) })
			mustPanic(t, "before Start", all(sends, 0))
			mustPanic(t, "Pready on a non-persistent or receive request", func() { recv.Pready(0) })
			mustPanic(t, "Pready on a non-persistent or receive request", all([]*Request{recv}, 0))
			mustPanic(t, "Preadyall with 1 requests but 0 partitions", all(sends))

			recv.Start()
			send.Start()
			mustPanic(t, "out of bounds", func() { send.Pready(2) })
			mustPanic(t, "out of bounds", all(sends, 2))
			mustPanic(t, "out of bounds", all(sends, -1))
			send.Pready(0)
			mustPanic(t, "marked ready twice", func() { send.Pready(0) })
			mustPanic(t, "marked ready twice", all(sends, 0))
			mustPanic(t, "Parrived on a non-persistent or send request", func() { send.Parrived(0) })
			mustPanic(t, "out of range", func() { recv.Parrived(2) })
			mustPanic(t, "marked ready twice", all([]*Request{send, send}, 1, 1))
			send.Wait()
			recv.Wait()

			// An unpartitioned persistent send rejects the partition verbs.
			plain := c.SendInit(0, 6, make([]float64, 2))
			prcv := c.RecvInit(0, 6, make([]float64, 2))
			prcv.Start()
			plain.Start()
			mustPanic(t, "unpartitioned", func() { plain.Pready(0) })
			mustPanic(t, "unpartitioned", all([]*Request{plain}, 0))
			mustPanic(t, "PreadyAll on a non-partitioned request", func() { plain.PreadyAll() })
			plain.Wait()
			prcv.Wait()
		})
	})
}

// TestPartitionedRebind re-points a partitioned send at a fresh buffer
// between cycles — the Degrade path — and checks the next cycle ships the
// new buffer's contents partition by partition.
func TestPartitionedRebind(t *testing.T) {
	forEachPair(t, func(t *testing.T, s, r *Comm) {
		const n = 8
		first := make([]float64, n)
		rbuf := make([]float64, n)
		send := s.PsendInit(r.Rank(), 7, first, []int{0, 4, n})
		recv := r.PrecvInit(s.Rank(), 7, rbuf)
		for i := range first {
			first[i] = float64(i)
		}
		recv.Start()
		send.Start()
		send.PreadyAll()
		send.Wait()
		recv.Wait()

		second := make([]float64, n)
		for i := range second {
			second[i] = float64(100 + i)
		}
		send.Rebind(second)
		recv.Start()
		send.Start()
		send.Pready(1)
		send.Pready(0)
		send.Wait()
		recv.Wait()
		for i := range rbuf {
			if want := float64(100 + i); rbuf[i] != want {
				t.Fatalf("elem %d after Rebind: got %v want %v", i, rbuf[i], want)
			}
		}
	})
}

// TestPartitionedParrivedAfterWait pins Parrived's lifetime on every
// backend: a partition reads true from its arrival until the next Start,
// Wait included, and false again once the next cycle has started.
func TestPartitionedParrivedAfterWait(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			peer := 1 - c.Rank()
			send := c.PsendInit(peer, 12, make([]float64, 6), []int{0, 2, 3, 6})
			recv := c.PrecvInit(peer, 12, make([]float64, 6))
			for cycle := 0; cycle < 3; cycle++ {
				recv.Start()
				send.Start()
				for p := 0; p < 3; p++ {
					if recv.Parrived(p) {
						t.Errorf("rank %d cycle %d: partition %d arrived before its Pready", c.Rank(), cycle, p)
					}
				}
				c.Barrier() // no peer readies a partition before every check above
				send.PreadyAll()
				send.Wait()
				recv.Wait()
				for p := 0; p < 3; p++ {
					if !recv.Parrived(p) {
						t.Errorf("rank %d cycle %d: Parrived(%d) false after Wait", c.Rank(), cycle, p)
					}
				}
			}
		})
	})
}
