package mpi

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// TestShmemAbortForensics: PublishedAbort reads the abort published in the
// segment header — the supervisor-side view of why a world died, available
// without ever running a rank — and stays false on clean worlds, shmem or
// not.
func TestShmemAbortForensics(t *testing.T) {
	w, err := NewWorldOn("shmem", 2)
	if err != nil {
		t.Fatalf("NewWorldOn(shmem): %v", err)
	}
	defer w.Close()
	if _, _, ok := w.PublishedAbort(); ok {
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
	rank, msg, ok := w.PublishedAbort()
	if !ok {
		t.Fatal("abort not readable from the segment header")
	}
	if rank != 1 || !strings.Contains(msg, "synthetic failure") {
		t.Fatalf("segment abort = rank %d msg %q, want rank 1 with the cause", rank, msg)
	}

	cw := NewWorld(1)
	defer cw.Close()
	if _, _, ok := cw.PublishedAbort(); ok {
		t.Fatal("clean chan world reports a published abort")
	}
}

// TestShmemReset: the shmem transport rewinds — reset quarantines the
// segment (rings re-seeded, staging cleared, send regions emptied, heap
// bump pointer rewound) and wipes local matching state, so checkpoint/restart
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
	w.ResumeRound(nil, -1)
	if n := len(w.oneShotOps()); n != 0 {
		t.Fatalf("pending ops after Respawn = %d, want 0", n)
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
	c0.isend(1, 3, []float64{1}, nil, 1)
	tr.drain(1)
	if n := len(w.matchers[1].unexpected); n != 1 {
		t.Fatalf("current-incarnation message dropped (unmatched = %d, want 1)", n)
	}
	w.resetMatchers()

	// The crash window: rank 0's old life published a message, then the
	// supervisor bumped its incarnation word (quarantine). The delivery is
	// stale and must be discarded, not queued for matching.
	c0.isend(1, 3, []float64{6}, nil, 2)
	atomic.AddUint64(tr.w64(tr.l.incs), 1)
	tr.drain(1)
	if n := len(w.matchers[1].unexpected); n != 0 {
		t.Fatalf("stale-incarnation message queued for matching (unmatched = %d, want 0)", n)
	}
	if got := tr.incarnation(0); got != 1 {
		t.Fatalf("incarnation = %d, want 1", got)
	}
}

// TestShmemOneShotRegionReclaims sends 10⁶ one-shot messages through a
// 32 MiB segment — 184 MB of blocks, several times the segment — so the
// run completes only if every consumed block is handed back to its
// sender's region. The sender runs up to a window ahead of the receiver,
// whose acknowledgement closes each window.
func TestShmemOneShotRegionReclaims(t *testing.T) {
	t.Setenv("BRICK_SHMEM_BYTES", strconv.Itoa(32<<20))
	w, err := NewWorldOn("shmem", 2)
	if err != nil {
		t.Fatalf("NewWorldOn(shmem): %v", err)
	}
	defer w.Close()
	const msgs, window = 1000000, 100
	w.Run(func(c *Comm) {
		buf := make([]float64, 16)
		for i := 0; i < msgs; i += window {
			for k := i; k < i+window; k++ {
				if c.Rank() == 0 {
					buf[0] = float64(k)
					c.Send(1, 1, buf)
				} else if c.Recv(0, 1, buf); buf[0] != float64(k) {
					t.Fatalf("message %d carried %v", k, buf[0])
				}
			}
			if c.Rank() == 0 {
				c.Recv(1, 2, buf[:1])
			} else {
				c.Send(0, 2, buf[:1])
			}
		}
	})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("world aborted: %v", ae)
	}
}
