package mpi

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestRunRecoverable_RespawnAfterPanic: a rank panics mid-exchange on the
// first epoch; recovery respawns the world and the replay epoch — with the
// same neighbor traffic — completes cleanly.
func TestRunRecoverable_RespawnAfterPanic(t *testing.T) {
	const n = 4
	forEachTransport(t, n, func(t *testing.T, w *World) {
		var epoch atomic.Int64
		var recovered atomic.Int64
		var finished atomic.Int64
		body := func(c *Comm) {
			e := epoch.Load()
			rank := c.Rank()
			// Ring exchange: everyone sends to the right, receives from the left.
			buf := []float64{float64(rank)}
			recv := make([]float64, 1)
			rr := c.Irecv((rank+n-1)%n, 7, recv)
			c.Isend((rank+1)%n, 7, buf).Wait()
			if e == 0 && rank == 2 {
				panic("injected: rank 2 dies mid-exchange")
			}
			rr.Wait()
			if want := float64((rank + n - 1) % n); recv[0] != want {
				c.Abort(fmt.Errorf("rank %d received %v, want %v", rank, recv[0], want))
			}
			if e == 1 {
				finished.Add(1) // only the replay epoch counts; epoch 0 aborts
			}
		}
		onRecover := func(ae *AbortError, attempt int) (int, bool) {
			if ae.Rank != 2 {
				t.Errorf("abort attributed to rank %d, want 2", ae.Rank)
			}
			if attempt != 1 {
				t.Errorf("attempt = %d, want 1", attempt)
			}
			recovered.Add(1)
			epoch.Add(1)
			return -1, true
		}
		w.RunRecoverable(body, onRecover)
		if recovered.Load() != 1 {
			t.Fatalf("onRecover ran %d times, want 1", recovered.Load())
		}
		if finished.Load() != n {
			t.Fatalf("%d ranks finished the replay epoch, want %d", finished.Load(), n)
		}
	})
}

// TestRunRecoverable_TwoRecoveries: two rounds in a row. Each round's
// verdict must reach every parked rank exactly once and each process must
// enter each new epoch exactly once — on tcp the coordinator process hosts
// the ranks, so it is both the supervisor and a parked participant.
func TestRunRecoverable_TwoRecoveries(t *testing.T) {
	const n = 3
	forEachTransport(t, n, func(t *testing.T, w *World) {
		var epoch, finished atomic.Int64
		w.RunRecoverable(func(c *Comm) {
			e := epoch.Load()
			got := c.Allreduce(OpSum, []float64{float64(c.Rank() + 1)})
			if got[0] != 6 {
				c.Abort(fmt.Errorf("epoch %d: Allreduce = %v, want 6", e, got[0]))
			}
			if e < 2 && c.Rank() == int(e) {
				panic(fmt.Sprintf("injected: epoch %d", e))
			}
			c.Barrier()
			finished.Add(1)
		}, func(ae *AbortError, attempt int) (int, bool) {
			if want := attempt - 1; ae.Rank != want {
				t.Errorf("round %d: abort attributed to rank %d, want %d", attempt, ae.Rank, want)
			}
			epoch.Add(1)
			return -1, attempt <= 2
		})
		if epoch.Load() != 2 || finished.Load() != n {
			t.Fatalf("recovered %d times, %d ranks finished; want 2 and %d", epoch.Load(), finished.Load(), n)
		}
	})
}

// TestRunRecoverable_BudgetExhausted: a deterministic repeat offender burns
// the policy's budget; RunRecoverable then re-raises the original
// *AbortError chain exactly as the fail-loud Run would.
func TestRunRecoverable_BudgetExhausted(t *testing.T) {
	const budget = 2
	forEachTransport(t, 3, func(t *testing.T, w *World) {
		cause := errors.New("stuck bit")
		attempts := 0
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("RunRecoverable returned; want re-raised *AbortError")
			}
			ae, ok := p.(*AbortError)
			if !ok {
				t.Fatalf("re-raised %T, want *AbortError", p)
			}
			if ae.Rank != 1 {
				t.Errorf("AbortError.Rank = %d, want 1", ae.Rank)
			}
			if !errors.Is(ae, ErrAborted) || !errors.Is(ae, cause) {
				t.Errorf("abort chain lost the original cause: %v", ae)
			}
			if attempts != budget+1 {
				t.Errorf("onRecover consulted %d times, want %d", attempts, budget+1)
			}
		}()
		w.RunRecoverable(func(c *Comm) {
			c.Barrier()
			if c.Rank() == 1 {
				c.Abort(cause)
			}
			c.Barrier()
		}, func(ae *AbortError, attempt int) (int, bool) {
			attempts++
			return -1, attempts <= budget
		})
	})
}

// TestRunRecoverable_PersistentRepair: persistent endpoints are paired by
// FIFO registration order, so recovery only works if Respawn empties the
// registry — a half-paired leftover from the failed epoch would misalign
// every later pairing. The body builds persistent channels each epoch and
// fails after pairing on the first.
func TestRunRecoverable_PersistentRepair(t *testing.T) {
	const n = 4
	forEachTransport(t, n, func(t *testing.T, w *World) {
		var epoch atomic.Int64
		body := func(c *Comm) {
			rank := c.Rank()
			send := []float64{float64(100*epoch.Load()) + float64(rank)}
			recv := make([]float64, 1)
			sr := c.SendInit((rank+1)%n, 3, send)
			rr := c.RecvInit((rank+n-1)%n, 3, recv)
			defer sr.Free()
			defer rr.Free()
			if epoch.Load() == 0 && rank == 0 {
				panic("injected: die between pairing and first start")
			}
			for i := 0; i < 3; i++ {
				sr.Start()
				rr.Start()
				sr.Wait()
				rr.Wait()
			}
			if want := float64(100*epoch.Load()) + float64((rank+n-1)%n); recv[0] != want {
				c.Abort(fmt.Errorf("rank %d received %v, want %v", rank, recv[0], want))
			}
		}
		w.RunRecoverable(body, func(ae *AbortError, attempt int) (int, bool) {
			epoch.Add(1)
			return -1, attempt == 1
		})
		if unmatched, live := w.PersistentPending(); unmatched != 0 || live != 0 {
			t.Fatalf("persistent registry not clean after run: unmatched=%d live=%d", unmatched, live)
		}
		if epoch.Load() != 1 {
			t.Fatalf("recovered %d times, want 1", epoch.Load())
		}
	})
}

// countParked counts the recovery-parked ops of a report.
func countParked(rep *StallReport) int {
	parked := 0
	for _, op := range rep.Pending {
		if op.Kind == "recovery-parked" {
			parked++
		}
	}
	return parked
}

// TestRunRecoverable_StallReportNamesParkedRanks: a StallReport taken while
// the world is parked for a recovery verdict names the parked ranks as
// recovery-parked pending ops — so a stall mid-recovery is attributable.
func TestRunRecoverable_StallReportNamesParkedRanks(t *testing.T) {
	const n = 3
	forEachTransport(t, n, func(t *testing.T, w *World) {
		// The give-up verdict re-raises; swallow it so the test can assert.
		defer func() { recover() }()
		w.RunRecoverable(func(c *Comm) {
			c.Barrier()
			if c.Rank() == 2 {
				panic("injected")
			}
			c.Barrier()
		}, func(ae *AbortError, attempt int) (int, bool) {
			rep := w.StallReport()
			if rep.Recovery != n {
				t.Errorf("StallReport.Recovery = %d, want %d (all ranks parked)", rep.Recovery, n)
			}
			if parked := countParked(rep); parked != n {
				t.Errorf("%d recovery-parked ops in report, want %d:\n%s", parked, n, rep)
			}
			return -1, false
		})
	})
}

// TestRunRecoverable_WatchdogStallRecovers: the watchdog abort is
// recoverable like any other — a deadlocked epoch (one rank forgets a
// barrier) is detected, the world respawns, and a clean epoch finishes.
func TestRunRecoverable_WatchdogStallRecovers(t *testing.T) {
	const n = 3
	forEachTransport(t, n, func(t *testing.T, w *World) {
		w.SetWatchdog(50*time.Millisecond, nil)
		var epoch atomic.Int64
		var finished atomic.Int64
		w.RunRecoverable(func(c *Comm) {
			if epoch.Load() == 0 && c.Rank() == 1 {
				// A receive nobody matches: the epoch stalls with every rank
				// pending (peers block in the epoch's closing barrier).
				c.Recv(0, 99, make([]float64, 1))
			}
			c.Barrier()
			finished.Add(1)
		}, func(ae *AbortError, attempt int) (int, bool) {
			if ae.Rank != WatchdogRank {
				t.Errorf("stall attributed to rank %d, want watchdog (%d)", ae.Rank, WatchdogRank)
			}
			epoch.Add(1)
			return -1, attempt == 1
		})
		if finished.Load() != n {
			t.Fatalf("%d ranks finished the replay epoch, want %d", finished.Load(), n)
		}
	})
}

// forEachWorkerTransport runs the scenario on each transport that hosts
// worker processes, with w the supervisor's world.
func forEachWorkerTransport(t *testing.T, size int, scenario func(t *testing.T, w *World)) {
	t.Helper()
	for _, name := range []string{"shmem", "tcp"} {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorldOn(name, size)
			if err != nil {
				t.Fatalf("NewWorldOn(%q, %d): %v", name, size, err)
			}
			defer w.Close()
			if !w.CanSuperviseWorkers() {
				t.Skip("worker worlds unavailable (shmem arena fell back to the heap)")
			}
			scenario(t, w)
		})
	}
}

// attachWorker attaches a worker world for rank of w in this process, as a
// worker process (or its respawn) would.
func attachWorker(t *testing.T, w *World, rank int) *World {
	t.Helper()
	var a *World
	var err error
	if f := w.ShmemFile(); f != nil {
		fd, derr := syscall.Dup(int(f.Fd()))
		if derr != nil {
			t.Fatal(derr)
		}
		a, err = AttachShmemWorld(os.NewFile(uintptr(fd), "segment"))
	} else {
		kv := strings.SplitN(w.WorkerSpawnEnv()[0], "=", 2)
		t.Setenv(kv[0], kv[1])
		a, err = AttachTCPWorld(rank)
	}
	if err != nil {
		t.Fatalf("attach rank %d: %v", rank, err)
	}
	a.SetWatchdog(10*time.Second, nil)
	t.Cleanup(func() { a.Close() })
	return a
}

// runWorker runs body as rank of worker world a and then parks it at the
// recovery barrier, the way a worker process does; the park's outcome and
// the abort that ended the epoch arrive on the returned channel.
type parkOutcome struct {
	resume bool
	err    error
}

func runWorker(a *World, rank int, body func(*Comm)) <-chan parkOutcome {
	out := make(chan parkOutcome, 1)
	go func() {
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					err, _ = p.(error)
					if err == nil {
						err = fmt.Errorf("%v", p)
					}
				}
			}()
			a.RunRank(rank, body)
		}()
		if err == nil {
			out <- parkOutcome{}
			return
		}
		out <- parkOutcome{a.ParkForRecovery(rank), err}
	}()
	return out
}

// awaitOutcome receives a worker's park outcome under a deadline.
func awaitOutcome(t *testing.T, ch <-chan parkOutcome) parkOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(20 * time.Second):
		t.Fatal("worker still parked 20s after the verdict")
		return parkOutcome{}
	}
}

// exchange runs one one-shot message from rank 0 to rank 1 between two
// worker worlds and returns what rank 1 received.
func exchange(t *testing.T, w0, w1 *World, v float64) float64 {
	t.Helper()
	got := make([]float64, 1)
	var wg sync.WaitGroup
	for r, a := range []*World{w0, w1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("rank %d: %v", r, p)
				}
			}()
			a.RunRank(r, func(c *Comm) {
				if r == 0 {
					c.Send(1, 5, []float64{v})
				} else {
					c.Recv(0, 5, got)
				}
			})
		}()
	}
	wg.Wait()
	return got[0]
}

// TestRecoveryRoundConformance drives one recovery round of each kind
// against worker worlds, the way the worker supervisor does. Phase 1: rank
// 1's process dies without parking; the supervisor kills the world, waits
// for the survivor to park, and resumes with rank 1 dead and step 3 pinned.
// The survivor, the supervisor and a re-attached rank 1 must then agree on
// the incarnation and the restore step, and a message in the new epoch must
// carry the new value. Phase 2: both ranks park after rank 0 aborts, the
// supervisor gives up, both wake refused, and the abort stays published.
func TestRecoveryRoundConformance(t *testing.T) {
	forEachWorkerTransport(t, 2, func(t *testing.T, w *World) {
		ws := workerWorlds(t, w)
		survivor := runWorker(ws[0], 0, func(c *Comm) {
			c.Recv(1, 1, make([]float64, 1)) // rank 1 dies before sending
		})
		ws[1].Close()
		w.Kill(errors.New("rank 1 worker died"))
		if missing := w.AwaitParked([]int{0}, time.Now().Add(20*time.Second)); missing != nil {
			t.Fatalf("ranks %v never parked", missing)
		}
		w.ResumeRound([]int{1}, 3)
		if o := awaitOutcome(t, survivor); !o.resume {
			t.Fatal("survivor woke refused, want resumed")
		}
		r1 := attachWorker(t, w, 1)
		for name, a := range map[string]*World{"supervisor": w, "survivor": ws[0], "respawned": r1} {
			if inc := a.Incarnation(1); inc != 1 {
				t.Errorf("%s: Incarnation(1) = %d, want 1", name, inc)
			}
			if step := a.RestoreStep(); step != 3 {
				t.Errorf("%s: RestoreStep() = %d, want 3", name, step)
			}
		}
		if got := exchange(t, ws[0], r1, 42); got != 42 {
			t.Fatalf("new-epoch exchange delivered %v, want 42", got)
		}

		boom := errors.New("boom")
		outs := []<-chan parkOutcome{
			runWorker(ws[0], 0, func(c *Comm) { c.Abort(boom) }),
			runWorker(r1, 1, func(c *Comm) { c.Recv(0, 2, make([]float64, 1)) }),
		}
		if missing := w.AwaitParked([]int{0, 1}, time.Now().Add(20*time.Second)); missing != nil {
			t.Fatalf("ranks %v never parked", missing)
		}
		w.GiveUpRound()
		for r, ch := range outs {
			if o := awaitOutcome(t, ch); o.resume {
				t.Errorf("rank %d woke resumed, want refused", r)
			}
		}
		if rank, msg, ok := w.PublishedAbort(); !ok || rank != 0 || !strings.Contains(msg, "boom") {
			t.Fatalf("PublishedAbort = (%d, %q, %v), want rank 0's boom", rank, msg, ok)
		}
	})
}

// TestStallReportListsParkedWorkers: a supervisor's StallReport taken while
// worker ranks are parked lists each parked rank and counts it, exactly as
// in-process recovery does.
func TestStallReportListsParkedWorkers(t *testing.T) {
	forEachWorkerTransport(t, 2, func(t *testing.T, w *World) {
		ws := workerWorlds(t, w)
		var outs []<-chan parkOutcome
		for r, a := range ws {
			outs = append(outs, runWorker(a, r, func(c *Comm) {
				if c.Rank() == 0 {
					c.Abort("injected")
				}
				c.Barrier()
			}))
		}
		if missing := w.AwaitParked([]int{0, 1}, time.Now().Add(20*time.Second)); missing != nil {
			t.Fatalf("ranks %v never parked", missing)
		}
		rep := w.StallReport()
		if rep.Recovery != 2 || countParked(rep) != 2 {
			t.Errorf("StallReport.Recovery = %d with %d recovery-parked ops, want 2 and 2:\n%s",
				rep.Recovery, countParked(rep), rep)
		}
		w.GiveUpRound()
		for _, ch := range outs {
			awaitOutcome(t, ch)
		}
	})
}

// TestAbortTextOnceAcrossProcesses: an abort's text is rendered once, where
// it happened. The originator, a survivor in another process and the
// supervisor's PublishedAbort all read the same line.
func TestAbortTextOnceAcrossProcesses(t *testing.T) {
	const want = "mpi: rank 0 panicked: boom"
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		ws := []*World{w, w}
		if w.CanSuperviseWorkers() {
			ws = workerWorlds(t, w)
		}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r, a := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { errs[r], _ = recover().(error) }()
				a.RunRank(r, func(c *Comm) {
					if r == 0 {
						c.Abort(errors.New("boom"))
					}
					c.Recv(0, 1, make([]float64, 1))
				})
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if !errors.Is(err, ErrAborted) || err.Error() != want {
				t.Errorf("rank %d reads %v, want %q", r, err, want)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			rank, msg, ok := w.PublishedAbort()
			if ok {
				if rank != 0 || msg != want {
					t.Errorf("PublishedAbort = (%d, %q), want (0, %q)", rank, msg, want)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("abort never published")
			}
			time.Sleep(time.Millisecond)
		}
	})
}
