package mpi

import (
	"errors"
	"testing"
	"time"
)

// runExpectAbort runs body on a world of size n, asserting Run panics with
// an *AbortError within the deadline, and returns it. The regression it
// guards: before abort propagation, a rank panic left every other rank
// blocked forever and Run never returned.
func runExpectAbort(t *testing.T, n int, deadline time.Duration, body func(*Comm)) *AbortError {
	t.Helper()
	return runWorldExpectAbort(t, NewWorld(n), deadline, body)
}

// TestRankPanicTerminatesWorld is the regression test for the panic-hang
// bug: rank 1 of 8 panics mid-step while every other rank is blocked in a
// receive Wait that can never match; all 8 ranks must unwind and Run must
// re-raise the originating rank's AbortError.
func TestRankPanicTerminatesWorld(t *testing.T) {
	ae := runExpectAbort(t, 8, 10*time.Second, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// A receive no one will ever send to: hangs without abort support.
		c.Irecv((c.Rank()+1)%c.Size(), 999, make([]float64, 4)).Wait()
	})
	if ae.Rank != 1 || ae.Value != "boom" {
		t.Errorf("AbortError = {Rank:%d Value:%v}, want {1 boom}", ae.Rank, ae.Value)
	}
	if !errors.Is(ae, ErrAborted) {
		t.Error("AbortError does not wrap ErrAborted")
	}
}

// TestAbortUnblocksCollectives parks ranks in each collective while one
// rank panics; every parked rank must unwind.
func TestAbortUnblocksCollectives(t *testing.T) {
	for _, tc := range []struct {
		name string
		park func(*Comm)
	}{
		{"barrier", func(c *Comm) { c.Barrier() }},
		{"allreduce", func(c *Comm) { c.Allreduce1(OpSum, 1) }},
		{"gather", func(c *Comm) { c.Gather([]float64{1}) }},
		{"persistent-wait", func(c *Comm) {
			r := c.SendInit((c.Rank()+1)%8, 5, make([]float64, 2))
			r.Start()
			r.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ae := runExpectAbort(t, 8, 10*time.Second, func(c *Comm) {
				if c.Rank() == 3 {
					panic("collective abort")
				}
				tc.park(c)
			})
			if ae.Rank != 3 {
				t.Errorf("originating rank = %d, want 3", ae.Rank)
			}
		})
	}
}

// TestCommAbort checks the explicit error-carrying abort: the AbortError
// must unwrap to both ErrAborted and the rank's error.
func TestCommAbort(t *testing.T) {
	cause := errors.New("plan compilation failed")
	ae := runExpectAbort(t, 4, 10*time.Second, func(c *Comm) {
		if c.Rank() == 2 {
			c.Abort(cause)
		}
		c.Barrier()
	})
	if ae.Rank != 2 {
		t.Errorf("originating rank = %d, want 2", ae.Rank)
	}
	if !errors.Is(ae, cause) || !errors.Is(ae, ErrAborted) {
		t.Errorf("AbortError %v does not unwrap to cause and ErrAborted", ae)
	}
}

func TestWaitTimeout(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			// Rank 1 sends only after rank 0 observed the timeout.
			c.Recv(0, 1, make([]float64, 1)) // sync: rank 0 timed out
			c.Send(0, 7, []float64{1, 2, 3})
			return
		}
		r := c.Irecv(1, 7, make([]float64, 3))
		n, err := r.WaitTimeout(10 * time.Millisecond)
		if n != 0 || !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("WaitTimeout = (%d, %v), want timeout", n, err)
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("error %T is not *TimeoutError", err)
		}
		if te.Op != "wait recv src=1 tag=7" {
			t.Errorf("Op = %q", te.Op)
		}
		c.Send(1, 1, []float64{0}) // release the sender
		if n, err := r.WaitTimeout(5 * time.Second); n != 3 || err != nil {
			t.Errorf("second WaitTimeout = (%d, %v), want (3, nil)", n, err)
		}
	})
}

func TestWaitallTimeoutPerRequestStatus(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			c.Send(0, 1, []float64{42}) // matches req 0; req 1 never matches
			return
		}
		reqs := []*Request{
			c.Irecv(1, 1, make([]float64, 1)),
			c.Irecv(1, 2, make([]float64, 1)),
			nil,
		}
		counts, errs, err := WaitallTimeout(reqs, 50*time.Millisecond)
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("batch error = %v, want timeout", err)
		}
		if counts[0] != 1 || errs[0] != nil {
			t.Errorf("req 0: (%d, %v), want (1, nil)", counts[0], errs[0])
		}
		if counts[1] != 0 || !errors.Is(errs[1], ErrWaitTimeout) {
			t.Errorf("req 1: (%d, %v), want timeout", counts[1], errs[1])
		}
		if errs[2] != nil {
			t.Errorf("nil req reported %v", errs[2])
		}
	})
}

// TestWaitTimeoutAbortReturnsError: WaitTimeout surfaces a world abort as
// an error instead of a panic.
func TestWaitTimeoutAbortReturnsError(t *testing.T) {
	ae := runExpectAbort(t, 2, 10*time.Second, func(c *Comm) {
		if c.Rank() == 1 {
			time.Sleep(5 * time.Millisecond)
			panic("die")
		}
		r := c.Irecv(1, 7, make([]float64, 1))
		_, err := r.WaitTimeout(5 * time.Second)
		var got *AbortError
		if !errors.As(err, &got) || got.Rank != 1 {
			t.Errorf("WaitTimeout error = %v, want rank-1 AbortError", err)
		}
		panic(err.(*AbortError)) // unwind as a victim
	})
	if ae.Rank != 1 {
		t.Errorf("originating rank = %d, want 1", ae.Rank)
	}
}

func TestWaitallReturnsReceivedCounts(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			n := Waitall([]*Request{
				c.Irecv(1, 1, make([]float64, 8)),
				c.Irecv(1, 2, make([]float64, 8)),
				nil,
			})
			if n != 3+5 {
				t.Errorf("Waitall = %d, want 8", n)
			}
			return
		}
		Waitall([]*Request{
			c.Isend(0, 1, make([]float64, 3)),
			c.Isend(0, 2, make([]float64, 5)),
		})
	})
}

// TestPersistentFreeNoLeak: freeing both sides of matched endpoints, and
// the single side of unmatched ones, must empty the registry completely.
func TestPersistentFreeNoLeak(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
		w.Run(func(c *Comm) {
			var reqs []*Request
			if c.Rank() == 0 {
				reqs = append(reqs, c.SendInit(1, 1, make([]float64, 4))) // matched
				reqs = append(reqs, c.SendInit(1, 9, make([]float64, 4))) // never matched
			} else {
				reqs = append(reqs, c.RecvInit(0, 1, make([]float64, 4)))
			}
			c.Barrier()
			if c.Rank() == 0 {
				if un, live := w.PersistentPending(); un != 1 || live != 2 {
					t.Errorf("before free: unmatched=%d live=%d, want 1, 2", un, live)
				}
			}
			c.Barrier()
			for _, r := range reqs {
				r.Free()
				r.Free() // double free is a no-op
			}
			c.Barrier()
			if c.Rank() == 0 {
				if un, live := w.PersistentPending(); un != 0 || live != 0 {
					t.Errorf("after free: unmatched=%d live=%d, want 0, 0", un, live)
				}
			}
		})
	})
}

func TestRebindSwapsPersistentBuffer(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			a := []float64{1, 2, 3}
			b := []float64{7, 8, 9}
			r := c.SendInit(1, 1, a)
			r.Start()
			r.Wait()
			r.Rebind(b)
			r.Start()
			r.Wait()
			r.Free()
			return
		}
		buf := make([]float64, 3)
		r := c.RecvInit(0, 1, buf)
		r.Start()
		r.Wait()
		if buf[0] != 1 {
			t.Errorf("first cycle got %v", buf)
		}
		r.Start()
		r.Wait()
		if buf[0] != 7 || buf[2] != 9 {
			t.Errorf("post-Rebind cycle got %v, want rebound data", buf)
		}
		r.Free()
	})
}

func TestRebindRejectsActiveAndOneShot(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		defer c.Barrier()
		if c.Rank() != 0 {
			return
		}
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}
		mustPanic("non-persistent", func() {
			(&Request{}).Rebind(nil)
		})
		r := c.SendInit(1, 5, make([]float64, 2))
		r.Start()
		mustPanic("active", func() { r.Rebind(make([]float64, 2)) })
	})
}
