package mpi

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/fault"
)

// Transport is the wire seam of the runtime: it owns one-shot matching and
// message delivery, and builds the link that moves each persistent
// endpoint's bytes, while World/Comm keep everything transport-agnostic —
// validation, collectives (written once over isend/irecv, see
// collectives.go), persistent pairing (persistent.go), the partitioned
// cycle (cycle.go) and the recovery round (recovery.go), fault injection, traffic counters, flight recording,
// metrics, the abort machinery, and the watchdog. A backend registers a
// factory under a name (RegisterTransport) and worlds are built on it with
// NewWorldOn; the "chan" backend is the in-process pre-paired channel
// runtime, "shmem" the shared-memory segment runtime that also works across
// processes, "tcp" framed streams between ranks.
//
// The interface is sealed (unexported methods): backends live in this
// package so the conformance suite in transport_conformance_test.go can
// hold every implementation to the same semantics.
type Transport interface {
	// name identifies the backend ("chan", "shmem") in metrics labels,
	// flight artifact headers, and stall reports.
	name() string

	// isend posts a one-shot send whose generic stamping (fault delay,
	// traffic counters, trace, flight seq, metrics) already happened; flips
	// is injected in-flight corruption to apply at delivery, seq the
	// sender's flight sequence stamp.
	isend(c *Comm, dst, tag int, buf []float64, flips []fault.ByteFlip, seq uint64) *Request
	// irecv posts a one-shot receive (src may be AnySource, tag AnyTag).
	// Matching goes through matches, so a wildcard never takes a message
	// on a reserved tag (collective traffic, pairing descriptors).
	irecv(c *Comm, src, tag int, buf []float64) *Request

	// newLink builds the data path of persistent endpoint e when
	// persistent.go registers it (matching is not the backend's: see the
	// matching rule there). e.r.pend.peer, when set, is the matched endpoint
	// of this process that registered first; a send side sets e.r.pend.link
	// to the word its receive side binds to.
	newLink(e *cycle) link

	// abortAll carries the world's abort ae to its other processes (shmem
	// publishes it in the segment, tcp sends it to the coordinator) as its
	// rank and cause text. Local waits are unblocked by the world's abort
	// channel.
	abortAll(ae *AbortError)

	// pendingOps lists one-shot traffic (persistent endpoints are
	// persistent.go's) for the watchdog: its length is the stall predicate
	// (collective traffic included, pairing descriptors left out), its
	// entries the StallReport listing.
	pendingOps() []PendingOp

	// newEpoch drops this process's wire state as the world enters epoch
	// gen of a recovery round (see recovery.go; the world is quiescent):
	// chan empties its inboxes, shmem its local matching state (the round
	// re-seeded the segment), tcp cuts every stream and moves its nodes onto
	// the epoch.
	newEpoch(gen uint64)

	// roundCell is the backend's share of the recovery round.
	roundCell

	// close releases transport resources (segments, fds). The world is
	// unusable afterwards.
	close() error
}

// reqOp is the per-request protocol half of a Request: how to park until
// completion and what bookkeeping completion implies. The generic half —
// trace/flight/metrics stamping — lives on Request itself.
type reqOp interface {
	// block parks until the transfer completed, or panics with the world's
	// *AbortError if the world aborts first.
	block(r *Request)
	// blockTimeout is block with a deadline: nil on completion, the
	// *AbortError on abort, a *TimeoutError on expiry (the operation is
	// still in flight and may be waited again).
	blockTimeout(r *Request, d time.Duration) error
	// finish performs post-completion bookkeeping (progress tick, receive
	// accounting) and returns the received element count (0 for sends).
	finish(r *Request) int
	// opName describes the operation for timeout diagnostics (cold path).
	opName(r *Request) string
}

// TransportFactory builds a backend for a world under construction. The
// world's size is final; its transport field is assigned from the return
// value.
type TransportFactory func(w *World) (Transport, error)

// transportEntry is one registered backend: its factory plus the one-line
// description surfaced in flag help and Validate errors, so user-facing
// text never drifts from what is actually registered.
type transportEntry struct {
	factory TransportFactory
	desc    string
}

var transportRegistry = map[string]transportEntry{}

// RegisterTransport registers a backend factory under a name, with a
// one-line description used to build -transport help text. Backends
// self-register from init; re-registering a name panics.
func RegisterTransport(name, desc string, f TransportFactory) {
	if _, dup := transportRegistry[name]; dup {
		panic(fmt.Sprintf("mpi: transport %q registered twice", name))
	}
	transportRegistry[name] = transportEntry{factory: f, desc: desc}
}

// TransportNames lists the registered backends, sorted.
func TransportNames() []string {
	names := make([]string, 0, len(transportRegistry))
	for n := range transportRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TransportDescription returns the registered one-line description for a
// backend ("" for an unknown name).
func TransportDescription(name string) string {
	return transportRegistry[name].desc
}

// TransportUsage renders every registered backend as "name: description",
// sorted and semicolon-joined — the body of the -transport flag help.
func TransportUsage() string {
	names := TransportNames()
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+": "+transportRegistry[n].desc)
	}
	return strings.Join(parts, "; ")
}

// DefaultTransport is the backend NewWorld builds on.
const DefaultTransport = "chan"

// NewWorldOn creates a world of the given size on the named transport
// backend. An unknown name or a failed backend setup is an error; a
// non-positive size is a programmer error and panics, as in NewWorld.
func NewWorldOn(name string, size int) (*World, error) {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	ent, ok := transportRegistry[name]
	if !ok {
		return nil, fmt.Errorf("mpi: unknown transport %q (registered: %s)",
			name, strings.Join(TransportNames(), ", "))
	}
	w := &World{size: size, abortCh: make(chan struct{}), epoch: verdict{step: -1}}
	tr, err := ent.factory(w)
	if err != nil {
		return nil, fmt.Errorf("mpi: transport %q: %w", name, err)
	}
	w.tr = tr
	w.sprog, _ = tr.(sharedProgress)
	return w, nil
}

// Transport returns the name of the backend this world runs on.
func (w *World) Transport() string { return w.tr.name() }

// Close releases the transport's resources (shared segments, fds). Worlds
// on the chan backend hold none, so Close is optional there; shmem worlds
// should be closed when done.
func (w *World) Close() error { return w.tr.close() }
