package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestShmemAbortForensics: ShmemAbort reads the abort published in the
// segment header — the supervisor-side view of why a world died, available
// without ever running a rank — and stays false on clean worlds and on
// non-shmem transports, which have no segment to read.
func TestShmemAbortForensics(t *testing.T) {
	w, err := NewWorldOn("shmem", 2)
	if err != nil {
		t.Fatalf("NewWorldOn(shmem): %v", err)
	}
	defer w.Close()
	if _, _, ok := w.ShmemAbort(); ok {
		t.Fatal("clean world reports a published abort")
	}
	ae := expectAbortOn(t, w, func(c *Comm) {
		if c.Rank() == 1 {
			c.Abort("synthetic failure")
		}
		c.Barrier()
	})
	if ae.Rank != 1 {
		t.Fatalf("abort attributed to rank %d, want 1", ae.Rank)
	}
	rank, msg, ok := w.ShmemAbort()
	if !ok {
		t.Fatal("abort not readable from the segment header")
	}
	if rank != 1 || !strings.Contains(msg, "synthetic failure") {
		t.Fatalf("segment abort = rank %d msg %q, want rank 1 with the cause", rank, msg)
	}

	cw := NewWorld(1)
	defer cw.Close()
	if _, _, ok := cw.ShmemAbort(); ok {
		t.Fatal("chan world reports a shmem abort")
	}
}

// TestShmemReset: the shmem transport rewinds — reset quarantines the
// segment (rings re-seeded, staging and collectives cleared, heap bump
// pointer rewound) and wipes local matching state, so checkpoint/restart
// respawn works on segment-backed worlds too. A reset world must run a
// fresh exchange cleanly and leave no pending state behind.
func TestShmemReset(t *testing.T) {
	w, err := NewWorldOn("shmem", 2)
	if err != nil {
		t.Fatalf("NewWorldOn(shmem): %v", err)
	}
	defer w.Close()
	expectAbortOn(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			// Leave a dangling one-shot send in the segment, then die.
			c.Isend(1, 7, []float64{1, 2, 3})
			c.Abort("synthetic mid-exchange failure")
		}
		c.Barrier()
	})
	if err := w.tr.reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	w.rearmAbort()
	if n := w.tr.pendingCount(); n != 0 {
		t.Fatalf("pendingCount after reset = %d, want 0", n)
	}
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 9, []float64{4, 5}).Wait()
			return
		}
		buf := make([]float64, 2)
		c.Irecv(0, 9, buf).Wait()
		if buf[0] != 4 || buf[1] != 5 {
			t.Errorf("post-reset recv = %v, want [4 5]", buf)
		}
	})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("post-reset run aborted: %v", ae)
	}
}

// TestShmemIncarnationFiltersStaleSends: every one-shot message is stamped
// with its sender's incarnation at post, and the drain drops messages whose
// stamp trails the sender's current incarnation word — a delivery from a
// crashed life must never match a post-respawn receive, even if it slips
// past the quarantine's ring re-seed.
func TestShmemIncarnationFiltersStaleSends(t *testing.T) {
	w, err := NewWorldOn("shmem", 2)
	if err != nil {
		t.Fatalf("NewWorldOn(shmem): %v", err)
	}
	defer w.Close()
	tr := w.tr.(*shmemTransport)
	c0 := w.newComm(0)

	// Positive control: a current-incarnation message survives the drain.
	tr.isend(c0, 1, 3, []float64{1}, nil, 1)
	tr.drain(1)
	if n := len(tr.inbox[1].unmatched); n != 1 {
		t.Fatalf("current-incarnation message dropped (unmatched = %d, want 1)", n)
	}
	tr.resetLocal()

	// The crash window: rank 0's old life published a message, then the
	// supervisor bumped its incarnation word (quarantine). The delivery is
	// stale and must be discarded, not queued for matching.
	tr.isend(c0, 1, 3, []float64{6}, nil, 2)
	atomic.AddUint64(tr.w64(tr.l.incs), 1)
	tr.drain(1)
	if n := len(tr.inbox[1].unmatched); n != 0 {
		t.Fatalf("stale-incarnation message queued for matching (unmatched = %d, want 0)", n)
	}
	if got := w.ShmemIncarnation(0); got != 1 {
		t.Fatalf("incarnation = %d, want 1", got)
	}
}

// TestShmemResetClearsReadyStamps: a partitioned send's readyCycle words
// come from the segment heap, which reset rewinds without clearing. The
// re-paired endpoint of a respawned epoch must not see the dead epoch's
// stamps: before the sender marks anything ready, Parrived is false.
func TestShmemResetClearsReadyStamps(t *testing.T) {
	w, err := NewWorldOn("shmem", 2)
	if err != nil {
		t.Fatalf("NewWorldOn(shmem): %v", err)
	}
	defer w.Close()
	// One partitioned cycle per epoch. The receiver registers first, so the
	// segment heap is carved in the same order in both epochs.
	epoch := func(c *Comm, early *bool) {
		buf := []float64{1, 2, 3, 4}
		var r *Request
		if c.Rank() == 1 {
			r = c.PrecvInit(0, 5, make([]float64, 4))
		}
		c.Barrier()
		if c.Rank() == 0 {
			r = c.PsendInit(1, 5, buf, []int{0, 2, 4})
		}
		r.Start()
		c.Barrier()
		if c.Rank() == 1 && early != nil {
			*early = r.Parrived(0)
		}
		c.Barrier()
		if c.Rank() == 0 {
			r.PreadyRange(0, 2)
		}
		r.Wait()
		r.Free()
	}
	w.Run(func(c *Comm) { epoch(c, nil) })
	if err := w.tr.reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	w.rearmAbort()
	var early bool
	w.Run(func(c *Comm) { epoch(c, &early) })
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("post-reset run aborted: %v", ae)
	}
	if early {
		t.Fatal("partition 0 arrived before the sender marked it ready: the ready stamp survived reset")
	}
}
