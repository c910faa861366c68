package mpi

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// findOp reports whether the report contains a pending op with exactly
// these endpoints.
func findOp(rep *StallReport, kind string, src, dst, tag int) bool {
	for _, op := range rep.Pending {
		if op.Kind == kind && op.Src == src && op.Dst == dst && op.Tag == tag {
			return true
		}
	}
	return false
}

// TestWatchdogReportsMismatchedPersistentTag is the acceptance test for
// stall detection: two ranks build a plan with mismatched tags (a SendInit
// on tag 7 against a RecvInit on tag 8) and block forever in Wait. The
// watchdog must abort within its deadline with a StallReport naming the
// exact (src, dst, tag) of both unpaired endpoints.
func TestWatchdogReportsMismatchedPersistentTag(t *testing.T) {
	w := NewWorld(2)
	var seen *StallReport
	w.SetWatchdog(50*time.Millisecond, func(rep *StallReport) { seen = rep })
	ae := runWorldExpectAbort(t, w, 10*time.Second, func(c *Comm) {
		var r *Request
		if c.Rank() == 0 {
			r = c.SendInit(1, 7, make([]float64, 4))
		} else {
			r = c.RecvInit(0, 8, make([]float64, 4))
		}
		r.Start()
		r.Wait() // blocks forever: the endpoints never paired
	})
	if ae.Rank != WatchdogRank {
		t.Errorf("originating rank = %d, want WatchdogRank", ae.Rank)
	}
	rep, ok := ae.Value.(*StallReport)
	if !ok {
		t.Fatalf("abort value %T, want *StallReport", ae.Value)
	}
	if seen != rep {
		t.Error("onStall callback did not receive the aborting report")
	}
	if !findOp(rep, "psend-unpaired", 0, 1, 7) {
		t.Errorf("report lacks psend-unpaired (0,1,7):\n%v", rep)
	}
	if !findOp(rep, "precv-unpaired", 0, 1, 8) {
		t.Errorf("report lacks precv-unpaired (0,1,8):\n%v", rep)
	}
}

// TestWatchdogReportsOneShotMismatch covers the one-shot path on every
// backend: an Isend whose tag no receive matches shows up as
// send-unmatched, and the posted receive as recv-posted.
func TestWatchdogReportsOneShotMismatch(t *testing.T) {
	forEachTransport(t, 2, func(t *testing.T, w *World) {
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
		if !findOp(rep, "send-unmatched", 0, 1, 3) {
			t.Errorf("report lacks send-unmatched (0,1,3):\n%v", rep)
		}
		if !findOp(rep, "recv-posted", 0, 1, 4) {
			t.Errorf("report lacks recv-posted (0,1,4):\n%v", rep)
		}
	})
}

// TestWatchdogQuietUnderProgress: a healthy exchanging world must never
// trip the watchdog, even when the run lasts many timeout windows.
func TestWatchdogQuietUnderProgress(t *testing.T) {
	w := NewWorld(2)
	w.SetWatchdog(30*time.Millisecond, nil)
	w.Run(func(c *Comm) {
		buf := make([]float64, 1)
		// A fixed iteration count on both ranks (never a per-rank clock:
		// that would let one rank exit the loop while the other starts an
		// extra send — a real deadlock the watchdog would rightly report).
		// 15 iterations × 10ms spans five watchdog windows.
		for i := 0; i < 15; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, buf)
				c.Recv(1, 2, buf)
			} else {
				c.Recv(0, 1, buf)
				c.Send(0, 2, buf)
			}
			time.Sleep(10 * time.Millisecond)
		}
		c.Barrier()
	})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("watchdog tripped on a healthy world: %v", ae)
	}
}

// runWorldExpectAbort is runExpectAbort for a pre-built world (so tests
// can arm the watchdog first).
func runWorldExpectAbort(t *testing.T, w *World, deadline time.Duration, body func(*Comm)) *AbortError {
	t.Helper()
	got := make(chan *AbortError, 1)
	go func() {
		defer func() {
			p := recover()
			ae, ok := p.(*AbortError)
			if !ok {
				t.Errorf("Run panic value %T (%v), want *AbortError", p, p)
			}
			got <- ae
		}()
		w.Run(body)
		t.Error("Run returned without panicking")
		got <- nil
	}()
	select {
	case ae := <-got:
		if ae == nil {
			t.FailNow()
		}
		return ae
	case <-time.After(deadline):
		t.Fatalf("Run still blocked after %v", deadline)
		return nil
	}
}

// TestStallReportGoldenFormat freezes StallReport.String: operational
// tooling greps these lines, so layout changes must be deliberate
// (go test ./internal/mpi/ -run Golden -update regenerates the file).
func TestStallReportGoldenFormat(t *testing.T) {
	rep := &StallReport{
		Size:      8,
		Watchdog:  250 * time.Millisecond,
		Transport: "chan",
		Barrier:   2,
		Gather:    1,
		Recovery:  1,
		Pending: []PendingOp{
			{Kind: "precv-unpaired", Src: 0, Dst: 1, Tag: 8, Bytes: 32, Persistent: true},
			{Kind: "psend-active", Src: 4, Dst: 5, Tag: 2, Bytes: 4096, Persistent: true},
			{Kind: "recovery-parked", Src: 6, Dst: -1, Tag: -1},
			{Kind: "recv-posted", Src: -1, Dst: 2, Tag: -1, Bytes: 64},
			{Kind: "send-unmatched", Src: 3, Dst: 2, Tag: 11, Bytes: 16},
		},
		FlightRank: 1,
		FlightTail: []string{
			"step step=2",
			"phase step=2 phase=exchange",
			"recv-post step=2 peer=0 tag=8 bytes=32",
			"wait-start step=2 peer=0 tag=8",
		},
	}
	got := rep.String()
	path := filepath.Join("testdata", "stallreport.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("StallReport format drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The error-message form is what log scrapers see after an abort.
	ae := &AbortError{Rank: WatchdogRank, Value: rep}
	if !strings.HasPrefix(ae.Error(), "mpi: watchdog abort: stall: 5 pending ops") {
		t.Errorf("AbortError message %q", ae.Error())
	}
}

// TestWorkerWatchdogSeesPeerProgress: a worker world's watchdog counts the
// progress of ranks in other processes. Rank 0 arms a watchdog and waits in
// a Recv from rank 1, which completes self-messages for three timeouts
// before it sends. Rank 0 makes no progress of its own the whole time, so
// only rank 1's completions, seen through the backend's shared counter
// (shmem: a segment word; tcp: control heartbeats, hence the longer
// timeout), keep its watchdog quiet.
func TestWorkerWatchdogSeesPeerProgress(t *testing.T) {
	forEachWorkerTransport(t, 2, func(t *testing.T, w *World) {
		timeout := 150 * time.Millisecond
		if w.Transport() == "tcp" {
			timeout = time.Second
		}
		ws := workerWorlds(t, w)
		ws[0].SetWatchdog(timeout, nil)
		errs := make([]any, 2)
		var wg sync.WaitGroup
		for r, a := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { errs[r] = recover() }()
				a.RunRank(r, func(c *Comm) {
					buf := make([]float64, 1)
					if r == 0 {
						c.Recv(1, 1, buf)
						return
					}
					for t0 := time.Now(); time.Since(t0) < 3*timeout; {
						rq := c.Irecv(1, 2, buf)
						c.Isend(1, 2, buf).Wait()
						rq.Wait()
						time.Sleep(time.Millisecond)
					}
					c.Send(0, 1, buf)
				})
			}()
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Errorf("rank %d aborted: %v", r, err)
			}
		}
	})
}
