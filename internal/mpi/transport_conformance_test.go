package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/metrics"
)

// The transport conformance suite: every registered backend is held to the
// same observable semantics. A new backend gets the whole battery for free
// by registering (RegisterTransport), and a semantic divergence between
// backends shows up as a per-backend subtest failure, not a soak-time
// heisenbug. Each scenario runs via forEachTransport, so the suite is the
// executable form of the Transport interface contract.

// forEachTransport runs the scenario once per registered backend.
func forEachTransport(t *testing.T, size int, scenario func(t *testing.T, w *World)) {
	t.Helper()
	for _, name := range TransportNames() {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorldOn(name, size)
			if err != nil {
				t.Fatalf("NewWorldOn(%q, %d): %v", name, size, err)
			}
			defer w.Close()
			if got := w.Transport(); got != name {
				t.Fatalf("w.Transport() = %q, want %q", got, name)
			}
			scenario(t, w)
		})
	}
}

// expectAbortOn is runWorldExpectAbort for the conformance suite: run the
// body on w expecting a world abort, with a hard scheduling deadline.
func expectAbortOn(t *testing.T, w *World, body func(*Comm)) *AbortError {
	t.Helper()
	return runWorldExpectAbort(t, w, 20*time.Second, body)
}

// TestConformanceOneShot exercises one-shot matching: concrete endpoints,
// AnySource/AnyTag wildcards, out-of-order tags, and payload fidelity
// (bit-exact float64 delivery).
func TestConformanceOneShot(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			n := 64
			if c.Rank() == 0 {
				// Two tagged sends posted in reverse tag order; the receiver
				// matches them by tag, so order must not matter.
				a := make([]float64, n)
				b := make([]float64, n)
				for i := range a {
					a[i] = float64(i) * 1.5
					b[i] = -float64(i)
				}
				ra := c.Isend(1, 2, a)
				rb := c.Isend(1, 1, b)
				ra.Wait()
				rb.Wait()
				// Wildcard leg: rank 0 accepts from anyone on any tag.
				got := make([]float64, 1)
				c.Irecv(AnySource, AnyTag, got).Wait()
				if got[0] != 42.5 {
					t.Errorf("wildcard recv got %v, want 42.5", got[0])
				}
			} else if c.Rank() == 1 {
				b := make([]float64, n)
				a := make([]float64, n)
				c.Irecv(0, 1, b).Wait()
				c.Irecv(0, 2, a).Wait()
				for i := range a {
					if a[i] != float64(i)*1.5 || b[i] != -float64(i) {
						t.Fatalf("payload mismatch at %d: a=%v b=%v", i, a[i], b[i])
					}
				}
				c.Isend(0, 9, []float64{42.5}).Wait()
			}
			c.Barrier()
		})
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("world aborted: %v", ae)
		}
	})
}

// TestConformanceOneShotOverflowBlame: a message longer than its posted
// receive aborts the world from the receiving rank, with the same text, on
// every backend — whichever side reached the matcher first.
func TestConformanceOneShotOverflowBlame(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		ae := expectAbortOn(t, w, func(c *Comm) {
			if c.Rank() == 1 {
				r := c.Irecv(0, 3, make([]float64, 4))
				c.Barrier()
				r.Wait()
				return
			}
			c.Barrier()
			c.Isend(1, 3, make([]float64, 8)).Wait()
		})
		if ae.Rank != 1 {
			t.Errorf("abort rank = %d, want the receiver, 1: %v", ae.Rank, ae)
		}
		if want := "message overflows receive buffer (src 0 tag 3)"; !strings.Contains(fmt.Sprint(ae.Value), want) {
			t.Errorf("abort value %q lacks %q", fmt.Sprint(ae.Value), want)
		}
	})
}

// TestConformanceOneShotCompletion pins when a one-shot send completes:
// chan is rendezvous (its Wait blocks until a receive took the message),
// shmem and tcp are eager (complete once the mailbox has it).
func TestConformanceOneShotCompletion(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		var early error
		w.Run(func(c *Comm) {
			buf := []float64{7}
			if c.Rank() == 0 {
				r := c.Isend(1, 5, buf)
				_, early = r.WaitTimeout(20 * time.Millisecond)
				c.Barrier()
				r.Wait()
				return
			}
			c.Barrier()
			if c.Recv(0, 5, buf); buf[0] != 7 {
				t.Errorf("recv = %v, want 7", buf[0])
			}
		})
		if rendezvous := w.Transport() == "chan"; rendezvous != errors.Is(early, ErrWaitTimeout) {
			t.Errorf("send WaitTimeout before any receive = %v; want a timeout exactly when rendezvous (%v)", early, rendezvous)
		}
	})
}

// TestConformanceCollectives checks Barrier/Allreduce/Gather semantics and
// the ascending-rank reduction order that keeps checksums bit-identical
// across backends: small and 40 000-element vectors, an OpSum whose result
// depends on the order of the fold, and a length mismatch that must abort.
func TestConformanceCollectives(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			in := []float64{float64(c.Rank()) + 0.25, 1000 * float64(c.Rank())}
			out := c.Allreduce(OpSum, in)
			want0 := 0.25 + 1.25 + 2.25 + 3.25
			if math.Float64bits(out[0]) != math.Float64bits(want0) || out[1] != 6000 {
				t.Errorf("rank %d Allreduce = %v", c.Rank(), out)
			}
			rows := c.Gather([]float64{float64(c.Rank() * 10)})
			if c.Rank() == 0 {
				for rk, row := range rows {
					if len(row) != 1 || row[0] != float64(rk*10) {
						t.Errorf("Gather row %d = %v", rk, row)
					}
				}
			} else if rows != nil {
				t.Errorf("rank %d Gather returned non-nil %v", c.Rank(), rows)
			}

			// 1e16 + 1 rounds back to 1e16, so only a fold in ascending rank
			// order gives the sequential result; element j rotates the
			// contributions so each term takes every rank's place once.
			terms := []float64{1e16, 1, -1e16, 1}
			in = make([]float64, len(terms))
			for j := range in {
				in[j] = terms[(c.Rank()+j)%len(terms)]
			}
			out = c.Allreduce(OpSum, in)
			for j := range out {
				want := terms[j%len(terms)]
				for r := 1; r < c.Size(); r++ {
					want += terms[(r+j)%len(terms)]
				}
				if math.Float64bits(out[j]) != math.Float64bits(want) {
					t.Errorf("rank %d order-dependent Allreduce[%d] = %v, want the ascending fold %v", c.Rank(), j, out[j], want)
				}
			}

			// 40 000 elements: larger than any fixed collective slot.
			big := make([]float64, 40000)
			for i := range big {
				big[i] = float64(c.Rank()) + float64(i)/8
			}
			out = c.Allreduce(OpSum, big)
			for i, v := range out {
				want := 0.0
				for r := 0; r < c.Size(); r++ {
					want += float64(r) + float64(i)/8
				}
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("rank %d big Allreduce[%d] = %v, want %v", c.Rank(), i, v, want)
				}
			}
			rows = c.Gather(big)
			if c.Rank() == 0 {
				for r, row := range rows {
					if len(row) != len(big) || row[len(row)-1] != float64(r)+float64(len(big)-1)/8 {
						t.Fatalf("big Gather row %d: %d elements", r, len(row))
					}
				}
			}
			c.Barrier()
		})
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("world aborted: %v", ae)
		}

		bad, err := NewWorldOn(w.Transport(), 4)
		if err != nil {
			t.Fatalf("NewWorldOn: %v", err)
		}
		defer bad.Close()
		ae := expectAbortOn(t, bad, func(c *Comm) {
			in := make([]float64, 3)
			if c.Rank() == 2 {
				in = make([]float64, 7)
			}
			c.Allreduce(OpSum, in)
		})
		if !strings.Contains(ae.Error(), "Allreduce length mismatch") {
			t.Fatalf("abort = %v, want an Allreduce length mismatch", ae)
		}
	})
}

// TestConformanceCollectiveContext: collectives are a matching context of
// their own. A wildcard receive posted before an Allreduce must not take
// the reduction's payload, and still gets the user message sent after it. The
// watchdog turns a receive that took the wrong message into an abort
// rather than a hang.
func TestConformanceCollectiveContext(t *testing.T) {
	forEachTransport(t, 3, func(t *testing.T, w *World) {
		w.SetWatchdog(2*time.Second, nil)
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("world aborted: %v", p)
			}
		}()
		w.Run(func(c *Comm) {
			user := make([]float64, 2)
			var r *Request
			if c.Rank() == 1 {
				r = c.Irecv(AnySource, AnyTag, user)
			}
			c.Barrier()
			in := make([]float64, 2)
			if c.Rank() == 0 {
				copy(in, []float64{7, 8})
			}
			if b := c.Allreduce(OpSum, in); b[0] != 7 || b[1] != 8 {
				t.Errorf("rank %d Allreduce payload = %v", c.Rank(), b)
			}
			switch c.Rank() {
			case 0:
				c.Send(1, 5, []float64{-1, -2})
			case 1:
				if n := r.Wait(); n != 2 || user[0] != -1 || user[1] != -2 {
					t.Errorf("wildcard receive got %d elements %v, want the user message [-1 -2]", n, user)
				}
			}
			c.Barrier()
		})
	})
}

// TestConformancePersistent drives a persistent ring exchange for several
// cycles with changing payloads, then checks Free bookkeeping via
// PersistentPending.
func TestConformancePersistent(t *testing.T) {
	forEachTransport(t, 4, func(t *testing.T, w *World) {
		const cycles = 8
		w.Run(func(c *Comm) {
			n := 32
			dst := (c.Rank() + 1) % c.Size()
			src := (c.Rank() + c.Size() - 1) % c.Size()
			sbuf := make([]float64, n)
			rbuf := make([]float64, n)
			s := c.SendInit(dst, 3, sbuf)
			r := c.RecvInit(src, 3, rbuf)
			for k := 0; k < cycles; k++ {
				for i := range sbuf {
					sbuf[i] = float64(c.Rank()*1000+k*100) + float64(i)
				}
				s.Start()
				r.Start()
				if got := r.Wait(); got != n {
					t.Errorf("cycle %d: recv Wait = %d, want %d", k, got, n)
				}
				s.Wait()
				for i := range rbuf {
					want := float64(src*1000+k*100) + float64(i)
					if rbuf[i] != want {
						t.Fatalf("cycle %d elem %d: got %v want %v", k, i, rbuf[i], want)
					}
				}
				c.Barrier()
			}
			s.Free()
			r.Free()
			c.Barrier()
		})
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("world aborted: %v", ae)
		}
		if un, live := w.PersistentPending(); un != 0 || live != 0 {
			t.Errorf("after Free: PersistentPending = (%d unmatched, %d live), want (0, 0)", un, live)
		}
	})
}

// TestConformanceSelfChannelBypass: a rank's persistent channels to itself
// move in memory on every backend next to a channel to another rank that
// keeps the backend's link. Every cycle lands Float64bits-equal; on tcp the
// writes and the pdata frames count the remote channel alone, and on shmem
// the self channels claim no entry of the persistent table.
func TestConformanceSelfChannelBypass(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		const cycles, n = 6, 24
		reg := metrics.NewRegistry()
		w.SetMetrics(reg)
		entries := func() uint64 { return 0 }
		if tr, ok := w.tr.(*shmemTransport); ok {
			entries = func() uint64 { return atomic.LoadUint64(tr.w64(offPersCount)) }
		}
		writes := func() int64 { return reg.Counter(metrics.TransportWritesTotal, nil).Value() }
		// fill writes cycle k's payload of channel ch: bit patterns a
		// conversion would not keep (NaN payloads, -0, subnormals).
		fill := func(buf []float64, ch, k int) {
			for i := range buf {
				buf[i] = math.Float64frombits(0x7ff0000000000001 | uint64(ch)<<48 | uint64(k)<<40 | uint64(i)<<3)
			}
			buf[0], buf[1] = math.Copysign(0, -1), math.Float64frombits(uint64(k+1))
		}
		check := func(rank, ch, k int, got []float64) {
			want := make([]float64, len(got))
			fill(want, ch, k)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("rank %d channel %d cycle %d elem %d: bits %#x, want %#x",
						rank, ch, k, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					return
				}
			}
		}
		var before, after int64
		var claimed uint64
		w.Run(func(c *Comm) {
			if c.Rank() == 1 { // receives only, so it writes nothing
				rbuf := make([]float64, n)
				r := c.RecvInit(0, 3, rbuf)
				for k := 0; k < cycles; k++ {
					r.Start()
					r.Wait()
					check(1, 3, k, rbuf)
				}
				r.Free()
				return
			}
			before = writes()
			e0 := entries()
			bufs := make([][]float64, 5)
			for i := range bufs {
				bufs[i] = make([]float64, n)
			}
			ss, rs := c.SendInit(0, 1, bufs[0]), c.RecvInit(0, 1, bufs[1])
			sp, rp := c.SendInit(0, 2, bufs[2]), c.RecvInit(0, 2, bufs[3])
			remote := c.SendInit(1, 3, bufs[4])
			claimed = entries() - e0
			for k := 0; k < cycles; k++ {
				fill(bufs[0], 1, k)
				fill(bufs[2], 2, k)
				fill(bufs[4], 3, k)
				if k%2 == 0 {
					Startall([]*Request{rs, rp, ss, sp, remote})
				} else { // sends first: each receive Start takes what waits for it
					Startall([]*Request{ss, sp, remote})
					Startall([]*Request{rs, rp})
				}
				Waitall([]*Request{rs, rp, ss, sp, remote})
				check(0, 1, k, bufs[1])
				check(0, 2, k, bufs[3])
			}
			after = writes()
			for _, r := range []*Request{ss, rs, sp, rp, remote} {
				r.Free()
			}
		})
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("world aborted: %v", ae)
		}
		switch w.Transport() {
		case "tcp":
			frames := func(kind string) int64 {
				return reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": kind}).Value()
			}
			if got := after - before; got != cycles {
				t.Errorf("transport_writes_total moved by %d over %d cycles, want %d: one per remote Start", got, cycles, cycles)
			}
			if got := frames("pdata"); got != cycles {
				t.Errorf("pdata frames = %d, want %d (the remote channel's)", got, cycles)
			}
		case "shmem":
			if claimed != 1 {
				t.Errorf("three channels claimed %d persistent table entries, want 1 (the remote one)", claimed)
			}
		}
		if un, live := w.PersistentPending(); un != 0 || live != 0 {
			t.Errorf("after Free: PersistentPending = (%d unmatched, %d live), want (0, 0)", un, live)
		}
	})
}

// TestConformanceLateSender: plan skew across ranks lets a receiver Start
// and Wait before the matched sender has registered; the cycle must still
// complete once the sender arrives. No barrier orders the two
// registrations. The watchdog turns a wedged receiver into a loud abort.
func TestConformanceLateSender(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		w.SetWatchdog(5*time.Second, nil)
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("world aborted: %v", p)
			}
		}()
		started := make(chan struct{})
		w.Run(func(c *Comm) {
			buf := make([]float64, 16)
			if c.Rank() == 0 {
				<-started
				// Give the receiver time to get inside Wait; the outcome must
				// be the same whichever side wins.
				time.Sleep(2 * time.Millisecond)
				for i := range buf {
					buf[i] = float64(i + 1)
				}
				s := c.SendInit(1, 9, buf)
				s.Start()
				s.Wait()
				c.Barrier()
				s.Free()
			} else {
				r := c.RecvInit(0, 9, buf)
				r.Start()
				close(started)
				if got := r.Wait(); got != 16 {
					t.Errorf("recv Wait = %d, want 16", got)
				}
				for i := range buf {
					if buf[i] != float64(i+1) {
						t.Errorf("elem %d: got %v", i, buf[i])
						break
					}
				}
				c.Barrier()
				r.Free()
			}
		})
	})
}

// TestConformanceAbortUnblocksWaits: an abort raised on one rank must
// unblock a peer parked in a receive Wait that would otherwise never
// complete, and surface the originating value on every rank.
func TestConformanceAbortUnblocksWaits(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		ae := expectAbortOn(t, w, func(c *Comm) {
			if c.Rank() == 0 {
				time.Sleep(20 * time.Millisecond)
				c.Abort(fmt.Errorf("conformance: deliberate failure"))
			}
			c.Irecv(1-c.Rank(), 7, make([]float64, 4)).Wait() // never matched
		})
		if ae.Rank != 0 {
			t.Errorf("abort rank = %d, want 0", ae.Rank)
		}
	})
}

// TestConformanceAbortUnblocksCollectives: the abort must also release a
// rank parked inside a collective rendezvous.
func TestConformanceAbortUnblocksCollectives(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		expectAbortOn(t, w, func(c *Comm) {
			if c.Rank() == 0 {
				time.Sleep(20 * time.Millisecond)
				c.Abort(fmt.Errorf("conformance: collective teardown"))
			}
			c.Barrier() // rank 1 parks here; rank 0 never arrives
		})
	})
}

// TestConformanceWatchdogStallReport arms the watchdog over a guaranteed
// stall (a posted receive no send will ever match) and requires the abort
// to carry a StallReport naming the backend and the stuck endpoint.
func TestConformanceWatchdogStallReport(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		w.SetWatchdog(60*time.Millisecond, nil)
		ae := expectAbortOn(t, w, func(c *Comm) {
			if c.Rank() == 1 {
				c.Irecv(0, 4, make([]float64, 2)).Wait() // rank 0 never sends
			} else {
				c.Barrier()
			}
		})
		rep, ok := ae.Value.(*StallReport)
		if !ok {
			t.Fatalf("abort value %T, want *StallReport", ae.Value)
		}
		if rep.Transport != w.Transport() {
			t.Errorf("report transport = %q, want %q", rep.Transport, w.Transport())
		}
		if !findOp(rep, "recv-posted", 0, 1, 4) {
			t.Errorf("report lacks recv-posted (0,1,4):\n%v", rep)
		}
		if rep.Barrier != 1 {
			t.Errorf("report barrier = %d, want rank 0 inside it:\n%v", rep.Barrier, rep)
		}
		for _, op := range rep.Pending {
			if op.Tag < AnyTag {
				t.Errorf("report lists a collective message %+v:\n%v", op, rep)
			}
		}
	})
}

// TestConformanceSelfSendWaitsForItsReceive pins the completion rule of a
// rank's channel to itself on every backend: its send completes when its
// receive takes the span, as on chan. A send Started and Waited before its
// receive is Started can never complete, so the watchdog must end the run
// with a stall report naming the channel — rank 0 to itself on tag 7 —
// instead of hanging.
func TestConformanceSelfSendWaitsForItsReceive(t *testing.T) {
	forEachTransport(t, 1, func(t *testing.T, w *World) {
		w.SetWatchdog(60*time.Millisecond, nil)
		ae := expectAbortOn(t, w, func(c *Comm) {
			s := c.SendInit(0, 7, make([]float64, 4))
			r := c.RecvInit(0, 7, make([]float64, 4))
			s.Start()
			s.Wait() // its receive is Started only after this returns
			r.Start()
			r.Wait()
		})
		rep, ok := ae.Value.(*StallReport)
		if !ok {
			t.Fatalf("abort value %T (%v), want *StallReport", ae.Value, ae.Value)
		}
		if ae.Rank != WatchdogRank || rep.Transport != w.Transport() {
			t.Errorf("abort by rank %d on %q, want the watchdog on %q", ae.Rank, rep.Transport, w.Transport())
		}
		if !findOp(rep, "psend-active", 0, 0, 7) || len(rep.Pending) != 1 {
			t.Errorf("report does not name only the self send (0,0,7) as psend-active:\n%v", rep)
		}
	})
}

// TestConformanceCRCVerify: with receive-side verification on, an injected
// payload corruption must kill the world with a CorruptionError naming the
// wire's endpoints, on every backend.
func TestConformanceCRCVerify(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		w.SetVerifyCRC(true)
		w.SetFault(fault.New(1).WithCorrupt(0, 1, 1))
		ae := expectAbortOn(t, w, func(c *Comm) {
			buf := make([]float64, 16)
			if c.Rank() == 0 {
				for i := range buf {
					buf[i] = float64(i)
				}
				c.Isend(1, 2, buf).Wait()
			} else {
				c.Irecv(0, 2, buf).Wait()
			}
			c.Barrier()
		})
		ce, ok := ae.Value.(*CorruptionError)
		if !ok {
			t.Fatalf("abort value %T (%v), want *CorruptionError", ae.Value, ae.Value)
		}
		if ce.Src != 0 || ce.Dst != 1 || ce.Tag != 2 {
			t.Errorf("CorruptionError endpoints = (%d,%d,%d), want (0,1,2)", ce.Src, ce.Dst, ce.Tag)
		}
	})
}

// TestConformanceCRCCleanRun: verification on, no fault — the run must be
// indistinguishable from an unverified one.
func TestConformanceCRCCleanRun(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		w.SetVerifyCRC(true)
		w.Run(func(c *Comm) {
			buf := make([]float64, 8)
			if c.Rank() == 0 {
				for i := range buf {
					buf[i] = float64(i) * 3.5
				}
				c.Isend(1, 1, buf).Wait()
			} else {
				c.Irecv(0, 1, buf).Wait()
				if buf[7] != 24.5 {
					t.Errorf("payload[7] = %v, want 24.5", buf[7])
				}
			}
			c.Barrier()
		})
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("clean verified run aborted: %v", ae)
		}
	})
}

// TestConformanceRespawnCycle: the respawn/reinit contract. After a world
// abort that strands wire state — an unmatched one-shot send, a posted
// receive, a half-paired persistent endpoint — Respawn must return the
// backend to a state indistinguishable from a fresh world: the next epoch's
// one-shot matching, persistent pairing, and collectives all run clean, no
// stale delivery from the failed epoch matches, and nothing stays pending
// after Free. Runs twice to prove the cycle is repeatable, not a one-shot
// reset.
func TestConformanceRespawnCycle(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		for cycle := 0; cycle < 2; cycle++ {
			ae := expectAbortOn(t, w, func(c *Comm) {
				if c.Rank() == 0 {
					c.Isend(1, 1, []float64{-1}) // stranded: never received
					c.SendInit(1, 2, make([]float64, 4))
					c.Abort(fmt.Errorf("conformance: die mid-cycle %d", cycle))
				}
				c.Irecv(0, 99, make([]float64, 1)).Wait() // never matched
			})
			if ae.Rank != 0 {
				t.Fatalf("cycle %d: abort rank = %d, want 0", cycle, ae.Rank)
			}
			w.ResumeRound(nil, -1)
			if n := len(w.oneShotOps()); n != 0 {
				t.Fatalf("cycle %d: pending ops after Respawn = %d, want 0", cycle, n)
			}
			w.Run(func(c *Comm) {
				// One-shot on the same tag the stranded send used: the fresh
				// epoch's payload must win, not the failed epoch's.
				if c.Rank() == 0 {
					c.Isend(1, 1, []float64{float64(10 + cycle)}).Wait()
				} else {
					got := make([]float64, 1)
					c.Irecv(0, 1, got).Wait()
					if got[0] != float64(10+cycle) {
						t.Errorf("cycle %d: recv = %v, want %v (stale delivery?)", cycle, got[0], float64(10+cycle))
					}
				}
				// Persistent pairing on the half-paired epoch's tag.
				var r *Request
				buf := make([]float64, 4)
				if c.Rank() == 0 {
					for i := range buf {
						buf[i] = float64(cycle*100 + i)
					}
					r = c.SendInit(1, 2, buf)
				} else {
					r = c.RecvInit(0, 2, buf)
				}
				r.Start()
				r.Wait()
				if c.Rank() == 1 {
					for i := range buf {
						if buf[i] != float64(cycle*100+i) {
							t.Fatalf("cycle %d: persistent elem %d = %v", cycle, i, buf[i])
						}
					}
				}
				r.Free()
				// Collective sanity over the respawned seats.
				sum := c.Allreduce(OpSum, []float64{float64(c.Rank() + 1)})
				if sum[0] != 3 {
					t.Errorf("cycle %d: Allreduce = %v, want 3", cycle, sum[0])
				}
				c.Barrier()
			})
			if ae := w.Aborted(); ae != nil {
				t.Fatalf("cycle %d: post-respawn run aborted: %v", cycle, ae)
			}
			if un, live := w.PersistentPending(); un != 0 || live != 0 {
				t.Errorf("cycle %d: PersistentPending = (%d, %d), want (0, 0)", cycle, un, live)
			}
		}
	})
}

// TestConformancePersistentUnpairedWatchdog: mismatched persistent tags
// must be reported as psend-unpaired/precv-unpaired on every backend.
func TestConformancePersistentUnpairedWatchdog(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		w.SetWatchdog(60*time.Millisecond, nil)
		ae := expectAbortOn(t, w, func(c *Comm) {
			var r *Request
			if c.Rank() == 0 {
				r = c.SendInit(1, 7, make([]float64, 4))
			} else {
				r = c.RecvInit(0, 8, make([]float64, 4))
			}
			r.Start()
			r.Wait()
		})
		rep, ok := ae.Value.(*StallReport)
		if !ok {
			t.Fatalf("abort value %T, want *StallReport", ae.Value)
		}
		if !findOp(rep, "psend-unpaired", 0, 1, 7) {
			t.Errorf("report lacks psend-unpaired (0,1,7):\n%v", rep)
		}
		if !findOp(rep, "precv-unpaired", 0, 1, 8) {
			t.Errorf("report lacks precv-unpaired (0,1,8):\n%v", rep)
		}
	})
}
