package mpi

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPersistentPairwise drives a two-rank persistent channel pair through
// many Start/Wait cycles and checks every delivery.
func TestPersistentPairwise(t *testing.T) {
	w := NewWorld(2)
	const n, steps = 64, 20
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := c.SendInit(peer, 7, sbuf)
		recv := c.RecvInit(peer, 7, rbuf)
		for s := 0; s < steps; s++ {
			for i := range sbuf {
				sbuf[i] = float64(1000*c.Rank() + 10*s + i%10)
			}
			recv.Start()
			send.Start()
			send.Wait()
			if got := recv.Wait(); got != n {
				t.Errorf("rank %d step %d: recv count %d, want %d", c.Rank(), s, got, n)
			}
			for i := range rbuf {
				want := float64(1000*peer + 10*s + i%10)
				if rbuf[i] != want {
					t.Fatalf("rank %d step %d elem %d: got %v want %v", c.Rank(), s, i, rbuf[i], want)
				}
			}
			c.Barrier()
		}
	})
}

// TestPersistentFIFOPairing registers two persistent plans with identical
// (src, dst, tag) triples — as double-buffered exchangers do — and checks
// they pair in registration order: plan 0's send lands in plan 0's receive.
func TestPersistentFIFOPairing(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		const n = 8
		w.Run(func(c *Comm) {
			peer := 1 - c.Rank()
			var sends, recvs [2]*Request
			var sbufs, rbufs [2][]float64
			for plan := 0; plan < 2; plan++ {
				sbufs[plan] = make([]float64, n)
				rbufs[plan] = make([]float64, n)
				for i := range sbufs[plan] {
					sbufs[plan][i] = float64(100*plan + i)
				}
				// Same tag for both plans: pairing must fall back to FIFO order.
				recvs[plan] = c.RecvInit(peer, 3, rbufs[plan])
				sends[plan] = c.SendInit(peer, 3, sbufs[plan])
			}
			for plan := 0; plan < 2; plan++ {
				recvs[plan].Start()
				sends[plan].Start()
				sends[plan].Wait()
				recvs[plan].Wait()
				for i, v := range rbufs[plan] {
					if want := float64(100*plan + i); v != want {
						t.Fatalf("rank %d plan %d elem %d: got %v want %v (cross-plan match?)", c.Rank(), plan, i, v, want)
					}
				}
			}
		})
	})
}

// TestPersistentSelfPair checks a rank exchanging with itself, the shape the
// allocation tests rely on: the second Start on the pair performs the copy
// inline, so the cycle completes single-threaded.
func TestPersistentSelfPair(t *testing.T) {
	w := NewWorld(1)
	const n = 16
	w.Run(func(c *Comm) {
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := c.SendInit(0, 5, sbuf)
		recv := c.RecvInit(0, 5, rbuf)
		for s := 0; s < 3; s++ {
			for i := range sbuf {
				sbuf[i] = float64(s*100 + i)
			}
			recv.Start()
			send.Start()
			send.Wait()
			recv.Wait()
			for i, v := range rbuf {
				if want := float64(s*100 + i); v != want {
					t.Fatalf("step %d elem %d: got %v want %v", s, i, v, want)
				}
			}
		}
	})
}

// forEachPair runs body once per backend and per channel kind, with s the
// sending rank's Comm and r the receiving one's: "self" is a one-rank
// world whose channels run from the rank to itself (in memory on every
// backend), "wire" runs rank 0's channels to rank 1 of a two-rank world
// over the backend's own link. Both ranks' calls run on one goroutine, so
// a body reads as a single-threaded script of both sides.
func forEachPair(t *testing.T, body func(t *testing.T, s, r *Comm)) {
	t.Helper()
	for _, name := range TransportNames() {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []struct {
				name string
				size int
			}{{"self", 1}, {"wire", 2}} {
				t.Run(kind.name, func(t *testing.T) {
					w, err := NewWorldOn(name, kind.size)
					if err != nil {
						t.Fatalf("NewWorldOn(%q, %d): %v", name, kind.size, err)
					}
					defer w.Close()
					runPair(w, func(s, r *Comm) { body(t, s, r) })
				})
			}
		})
	}
}

// runPair runs f on w's rank 0 as the sender and w's last rank as the
// receiver: the same Comm in a one-rank world. The receiving rank's
// goroutine idles until f returns.
func runPair(w *World, f func(s, r *Comm)) {
	recv, done := make(chan *Comm, 1), make(chan struct{})
	w.Run(func(c *Comm) {
		switch {
		case w.Size() == 1:
			f(c, c)
		case c.Rank() > 0:
			recv <- c
			<-done
		default:
			defer close(done)
			f(c, <-recv)
		}
	})
}

// TestPersistentZeroAllocSteps asserts the steady-state Start/Wait cycle
// performs zero heap allocations — one channel at a time, and a Startall
// over two — on every backend, over a rank's channels to itself and over
// the backend's own link. On the wire,
// shmem goes through the segment's staging slots and tcp through the
// loopback stream and the receiving node's reader goroutine, whose decode
// and delivery count too.
func TestPersistentZeroAllocSteps(t *testing.T) {
	forEachPair(t, func(t *testing.T, s, r *Comm) {
		dst, src := r.Rank(), s.Rank()
		send := s.SendInit(dst, 9, make([]float64, 512))
		recv := r.RecvInit(src, 9, make([]float64, 512))
		qsend := s.SendInit(dst, 11, make([]float64, 300))
		qrecv := r.RecvInit(src, 11, make([]float64, 300))
		plain := []*Request{recv, send}
		both := []*Request{recv, qrecv, send, qsend}
		cycle := func() {
			recv.Start()
			send.Start()
			Waitall(plain)
			Startall(both[:2])
			Startall(both[2:])
			Waitall(both)
		}
		cycle() // warm-up: pairing, stream dial, buffer growth
		// Integer division over the runs: an occasional heartbeat frame
		// of the tcp node stays below one allocation per cycle.
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("persistent Start/Wait cycle allocates %v objects per step, want 0", allocs)
		}
	})
}

// TestPersistentTrafficCounters checks persistent traffic lands in the same
// counters as one-shot traffic: sends at Start, receives at Wait.
func TestPersistentTrafficCounters(t *testing.T) {
	w := NewWorld(2)
	const n, steps = 32, 4
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		send := c.SendInit(peer, 1, make([]float64, n))
		recv := c.RecvInit(peer, 1, make([]float64, n))
		c.TrafficSnapshot() // discard anything from setup
		for s := 0; s < steps; s++ {
			recv.Start()
			send.Start()
			send.Wait()
			recv.Wait()
		}
		tr := c.TrafficSnapshot()
		if tr.SentMsgs != steps || tr.RecvMsgs != steps {
			t.Errorf("rank %d: %d sent / %d recv msgs, want %d / %d", c.Rank(), tr.SentMsgs, tr.RecvMsgs, steps, steps)
		}
		if want := int64(steps * n * 8); tr.SentBytes != want || tr.RecvBytes != want {
			t.Errorf("rank %d: %d sent / %d recv bytes, want %d", c.Rank(), tr.SentBytes, tr.RecvBytes, want)
		}
	})
}

// TestPersistentDoubleStartPanics checks the alternation contract.
func TestPersistentDoubleStartPanics(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		recv := c.RecvInit(0, 2, make([]float64, 4))
		recv.Start()
		defer func() {
			p := recover()
			if p == nil {
				t.Error("second Start without Wait did not panic")
			} else if !strings.Contains(p.(string), "started twice") {
				t.Errorf("unexpected panic: %v", p)
			}
		}()
		recv.Start()
	})
}

// TestPersistentOverflowPanicsAtMatch checks buffer overflow is caught at
// plan-build time, when the endpoints match — not at the first transfer.
func TestPersistentOverflowPanicsAtMatch(t *testing.T) {
	forEachTransport(t, 1, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			c.SendInit(0, 4, make([]float64, 10))
			defer func() {
				p := recover()
				if p == nil {
					t.Error("oversized persistent send matched undersized receive without panic")
				} else if !strings.Contains(p.(string), "overflows") {
					t.Errorf("unexpected panic: %v", p)
				}
			}()
			c.RecvInit(0, 4, make([]float64, 5)) // too small: must panic here
		})
	})
}

// TestPersistentFreeUnmatched checks Free removes a never-matched endpoint
// from the pending table so a rebuilt plan with the same (src, dst, tag)
// does not cross-match stale state.
func TestPersistentFreeUnmatched(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		const n = 8
		w.Run(func(c *Comm) {
			peer := 1 - c.Rank()
			stale := make([]float64, n)
			for i := range stale {
				stale[i] = -1
			}
			// First plan: register a send endpoint the peer never matches, then
			// tear it down before the peer builds its receive side.
			old := c.SendInit(peer, 6, stale)
			old.Free()
			c.Barrier()
			// Second plan with the same key must pair fresh endpoints.
			sbuf := make([]float64, n)
			rbuf := make([]float64, n)
			for i := range sbuf {
				sbuf[i] = float64(c.Rank()*10 + i)
			}
			recv := c.RecvInit(peer, 6, rbuf)
			send := c.SendInit(peer, 6, sbuf)
			recv.Start()
			send.Start()
			send.Wait()
			recv.Wait()
			for i, v := range rbuf {
				if want := float64(peer*10 + i); v != want {
					t.Fatalf("rank %d elem %d: got %v want %v (matched freed endpoint?)", c.Rank(), i, v, want)
				}
			}
		})
	})
}

// TestPersistentConcurrentStartWait reuses one plan across many cycles with
// Start and Wait driven from different goroutines of the same rank — the
// comm/compute-overlap shape — and is meant to run under -race.
func TestPersistentConcurrentStartWait(t *testing.T) {
	w := NewWorld(4)
	const n, steps = 128, 50
	w.Run(func(c *Comm) {
		peer := c.Rank() ^ 1 // 0<->1, 2<->3
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := c.SendInit(peer, 8, sbuf)
		recv := c.RecvInit(peer, 8, rbuf)
		for s := 0; s < steps; s++ {
			for i := range sbuf {
				sbuf[i] = float64(c.Rank()*1000 + s)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				recv.Start()
				send.Start()
				send.Wait()
				recv.Wait()
			}()
			wg.Wait()
			if rbuf[0] != float64(peer*1000+s) {
				t.Errorf("rank %d step %d: got %v want %v", c.Rank(), s, rbuf[0], float64(peer*1000+s))
			}
			c.Barrier()
		}
	})
}

// TestPersistentWaitTimeoutUnmatched: a receive whose sender never
// registers times out in WaitTimeout, even with a zero budget, instead of
// blocking on the match.
func TestPersistentWaitTimeoutUnmatched(t *testing.T) {
	forEachTransport(t, 1, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			r := c.RecvInit(0, 3, make([]float64, 4))
			r.Start()
			for _, d := range []time.Duration{0, 5 * time.Millisecond} {
				if _, err := r.WaitTimeout(d); !errors.Is(err, ErrWaitTimeout) {
					t.Errorf("WaitTimeout(%v) on an unmatched receive = %v, want a timeout", d, err)
				}
			}
		})
	})
}

// TestPersistentInitFreeChurn registers, cycles and frees two persistent
// channels of 8 elements 10⁴ times in one epoch, with one Rebind growth of
// the first in the first round. Every
// backend must keep going; on shmem a freed channel's table entry is
// reused with its staging, so the segment heap does not grow after the
// first round.
func TestPersistentInitFreeChurn(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		heap := func() uint64 { return 0 }
		if tr, ok := w.tr.(*shmemTransport); ok {
			heap = func() uint64 { return atomic.LoadUint64(tr.w64(offHeapNext)) }
		}
		const rounds = 10000
		var after1 uint64
		w.Run(func(c *Comm) {
			for round := 0; round < rounds; round++ {
				n := 8
				a, b := make([]float64, n), make([]float64, n)
				var ra, rb *Request
				if c.Rank() == 0 {
					for i := range a {
						a[i], b[i] = float64(round+i), float64(-round-i)
					}
					ra, rb = c.SendInit(1, 1, a), c.SendInit(1, 2, b)
				} else {
					ra, rb = c.RecvInit(0, 1, a), c.RecvInit(0, 2, b)
				}
				if round == 0 {
					// Grow the first channel: the receive side first, so the
					// sender's rebind finds room.
					a = append(a, make([]float64, n)...)
					if c.Rank() == 1 {
						ra.Rebind(a)
					}
					c.Barrier()
					if c.Rank() == 0 {
						for i := range a {
							a[i] = float64(i)
						}
						ra.Rebind(a)
					}
				}
				Startall([]*Request{ra, rb})
				ra.Wait()
				rb.Wait()
				if c.Rank() == 1 && (a[n-1] != float64(round+n-1) || b[1] != float64(-round-1)) {
					t.Fatalf("round %d: received a[%d]=%v b[1]=%v", round, n-1, a[n-1], b[1])
				}
				ra.Free()
				rb.Free()
				c.Barrier()
				if round == 0 && c.Rank() == 0 {
					after1 = heap()
				}
			}
		})
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("world aborted: %v", ae)
		}
		if got := heap(); got != after1 {
			t.Errorf("segment heap grew from %d to %d bytes after the first round", after1, got)
		}
		if un, live := w.PersistentPending(); un != 0 || live != 0 {
			t.Errorf("PersistentPending = (%d, %d), want (0, 0)", un, live)
		}
	})
}

// TestPersistentStallListing pins the stall-listing rule on every backend:
// a started persistent endpoint is listed exactly while its own Wait would
// block. Started with its receiver not started, a chan send still waits
// for delivery and is listed; an eager backend's send to another rank is
// complete and is not, and a send to the rank itself waits for its receive
// and is listed on every backend. A started receive whose sender
// has not started is listed and blocks everywhere, and nothing is listed
// once every cycle completed.
func TestPersistentStallListing(t *testing.T) {
	forEachPair(t, func(t *testing.T, s, r *Comm) {
		w := s.world
		listed := func(kind string, tag int) bool {
			for _, op := range w.pairs.pendingOps(w) {
				if op.Kind == kind && op.Tag == tag {
					return true
				}
			}
			return false
		}
		blocks := func(r *Request) bool {
			_, err := r.WaitTimeout(20 * time.Millisecond)
			if err != nil && !errors.Is(err, ErrWaitTimeout) {
				t.Fatalf("WaitTimeout: %v", err)
			}
			return err != nil
		}
		dst, src := r.Rank(), s.Rank()
		psend := s.SendInit(dst, 1, make([]float64, 6))
		precv := r.RecvInit(src, 1, make([]float64, 6))
		psend.Start()
		l, b := listed("psend-active", 1), blocks(psend)
		if l != b {
			t.Errorf("send started, receiver not started: listed %v, Wait blocks %v", l, b)
		}
		if s == r && !b {
			t.Errorf("send to the rank itself started, receiver not started: Wait returned, want it to wait for the receive")
		}
		precv.Start()
		psend.Wait()
		precv.Wait()

		recv := r.RecvInit(src, 2, make([]float64, 4))
		send := s.SendInit(dst, 2, make([]float64, 4))
		recv.Start()
		if l, b := listed("precv-active", 2), blocks(recv); !l || !b {
			t.Errorf("receive with its sender not started: listed %v, Wait blocks %v; want both", l, b)
		}
		send.Start()
		send.Wait()
		recv.Wait()
		if ops := w.pairs.pendingOps(w); len(ops) != 0 {
			t.Errorf("listed after every cycle completed: %+v", ops)
		}
	})
}
