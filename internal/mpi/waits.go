package mpi

import (
	"errors"
	"fmt"
	"time"
)

// ErrWaitTimeout is the sentinel wrapped by every TimeoutError;
// errors.Is(err, ErrWaitTimeout) identifies a deadline expiry regardless
// of which operation hit it.
var ErrWaitTimeout = errors.New("mpi: wait timed out")

// TimeoutError reports a WaitTimeout/WaitallTimeout deadline expiry with
// the operation that was still pending.
type TimeoutError struct {
	// After is the deadline that expired.
	After time.Duration
	// Op describes the pending operation, e.g. "wait send dst=3 tag=7".
	Op string
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("mpi: %s timed out after %v", e.Op, e.After)
}

func (e *TimeoutError) Unwrap() error { return ErrWaitTimeout }

// WaitTimeout is the deadline-aware, error-returning form of Wait: it
// blocks at most d, returning the received element count on completion, a
// *TimeoutError (wrapping ErrWaitTimeout) if the deadline expires, or the
// world's *AbortError if the world aborts first. On timeout the request is
// STILL IN FLIGHT — the transfer was not cancelled and a later Wait or
// WaitTimeout may still complete it; on abort or completion the request is
// finished exactly as by Wait. Unlike Wait, an abort is returned as an
// error rather than raised as a panic, so single-goroutine drivers and
// tests can observe it without a recover.
func (r *Request) WaitTimeout(d time.Duration) (int, error) {
	d = max(d, 0) // a negative d has expired, never unbounded (forever)
	if p := r.pend; p != nil {
		t0 := time.Now()
		if err := p.await(r.comm, d); err != nil {
			return 0, err
		}
		d = max(d-time.Since(t0), 0)
	}
	return r.op.wait(r, d)
}

// WaitallTimeout waits for every request under ONE shared deadline (d
// bounds the whole batch, not each request) and surfaces per-request
// status: counts[i] is request i's received element count, errs[i] its
// failure (nil on success, a *TimeoutError for requests still pending at
// the deadline, the *AbortError for requests cut off by an abort), and the
// returned error is the first non-nil entry of errs. Nil requests are
// skipped. Requests that timed out remain in flight, as with WaitTimeout.
func WaitallTimeout(reqs []*Request, d time.Duration) (counts []int, errs []error, err error) {
	counts = make([]int, len(reqs))
	errs = make([]error, len(reqs))
	deadline := time.Now().Add(d)
	for i, r := range reqs {
		if r == nil {
			continue
		}
		left := time.Until(deadline)
		if left < 0 {
			left = 0
		}
		counts[i], errs[i] = r.WaitTimeout(left)
		if errs[i] != nil && err == nil {
			err = errs[i]
		}
	}
	return counts, errs, err
}
