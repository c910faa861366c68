package mpi

import (
	"errors"
	"fmt"

	"github.com/bricklab/brick/internal/flight"
)

// ErrAborted is the sentinel wrapped by every AbortError; errors.Is(err,
// ErrAborted) identifies a world-wide abort regardless of its cause.
var ErrAborted = errors.New("mpi: world aborted")

// WatchdogRank is the AbortError.Rank value of an abort raised by the
// watchdog rather than by a rank.
const WatchdogRank = -1

// AbortError is the single value a dying world produces: the originating
// rank (or WatchdogRank) and the recovered panic value, error, or
// *StallReport that killed it. It is the panic value raised by World.Run
// and by every blocked operation a world-wide abort cancels, and the error
// returned by WaitTimeout when the world aborts mid-wait.
type AbortError struct {
	// Rank is the rank whose panic or Abort originated the shutdown, or
	// WatchdogRank (-1) for a watchdog-detected stall.
	Rank int
	// Value is the recovered panic value, the error passed to Comm.Abort,
	// or the *StallReport of a watchdog abort.
	Value any
}

func (e *AbortError) Error() string {
	if rep, ok := e.Value.(*StallReport); ok {
		return fmt.Sprintf("mpi: watchdog abort: %v", rep)
	}
	if e.Rank == WatchdogRank {
		return fmt.Sprintf("mpi: watchdog abort: %v", e.Value)
	}
	return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Value)
}

// cause renders what killed the world without Error's prefix: the text an
// abort carries to other processes, where it arrives as a *RemoteAbort and
// Error renders it — prefix included — exactly once.
func (e *AbortError) cause() string { return fmt.Sprint(e.Value) }

// RemoteAbort is the abort cause observed by a process whose peer aborted
// the shared world: the original value lives in the peer, only its
// rendering crosses processes.
type RemoteAbort struct{ Msg string }

func (e *RemoteAbort) Error() string { return e.Msg }

// Unwrap exposes both ErrAborted and, when the abort carried an error (a
// rank calling Comm.Abort with one), that error — so errors.Is/As reach
// either.
func (e *AbortError) Unwrap() []error {
	if err, ok := e.Value.(error); ok {
		return []error{ErrAborted, err}
	}
	return []error{ErrAborted}
}

// abort initiates the world-wide shutdown exactly once: record the cause,
// close the abort channel (unblocking every point-to-point and persistent
// Wait, and so every collective), and carry the abort to the world's other
// processes. Later calls are no-ops — the first failure wins, as in
// MPI_Abort.
func (w *World) abort(rank int, v any) {
	w.abortOnce.Do(func() {
		// The originating rank's last flight event is the abort itself, so a
		// post-mortem ring ends at the kill shot rather than trailing off.
		w.flight.Load().Rank(rank).Record(flight.KindAbort, -1, -1, -1, 0, 0)
		ae := &AbortError{Rank: rank, Value: v}
		w.abortVal.Store(ae)
		close(w.abortCh)
		w.tr.abortAll(ae)
	})
}

// Aborted returns the abort cause, or nil while the world is healthy.
func (w *World) Aborted() *AbortError { return w.abortVal.Load() }

// Aborting reports whether the world has begun aborting. Teardown code
// running during a panic unwind uses it to choose between a full release
// and a leak-on-abort: an unwinding rank must not unmap memory that a
// surviving peer's parked or in-flight transfer may still reference.
// Every abort path stores the cause before any rank starts unwinding, so
// a rank unwinding from an abort always observes true here.
func (c *Comm) Aborting() bool { return c.world.Aborted() != nil }

// Kill aborts the world from outside any rank — the supervisor half of a
// cross-process world uses it when a worker process dies without publishing
// an abort (SIGKILL, OOM): the remaining workers' waits must unwind instead
// of spinning on a peer that will never answer. The cause is attributed to
// WatchdogRank, like a stall. Unlike Comm.Abort it does not panic: the
// caller is a supervisor, not a rank.
func (w *World) Kill(v any) { w.abort(WatchdogRank, v) }

// Abort kills the whole world from one rank: every rank blocked in Wait,
// Waitall, Barrier, or a reduction panics with the same *AbortError
// (carrying this rank and v) instead of hanging, and World.Run re-raises
// it in the caller after all ranks unwound. Abort panics the calling rank
// too — it does not return.
func (c *Comm) Abort(v any) {
	c.world.abort(c.rank, v)
	panic(c.world.Aborted())
}
