package mpi

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Transport is the wire seam of the runtime. A backend supplies a mailbox
// that carries one-shot messages (oneshot.go: send, drain, peek), the link
// that moves each persistent endpoint's bytes (cycle.go: newLink and retire
// here, put, poll and bind on the link), its cell of the recovery round
// (recovery.go: parked, await, settle, release, publishedAbort), and
// abortAll, progress and close: 13 methods, 16 with the link's. Every
// protocol — one-shot matching, collectives, pairing, the cycle, the
// recovery round — and validation, fault injection, counters, flight
// recording, metrics, aborts and the watchdog belong to World/Comm,
// written once. A backend registers a factory under a name
// (RegisterTransport) and worlds are built on it with NewWorldOn: "chan"
// runs every rank in this process, "shmem" over a shared-memory segment
// that also works across processes, "tcp" over framed streams.
//
// The interface is sealed (unexported methods): backends live in this
// package so the conformance suite in transport_conformance_test.go can
// hold every implementation to the same semantics.
type Transport interface {
	// mailbox carries one-shot messages.
	mailbox

	// newLink builds the data path of persistent endpoint e when
	// persistent.go registers it (matching is not the backend's: see the
	// matching rule there). e.r.pend.peer, when set, is the matched endpoint
	// of this process that registered first; a send side sets e.r.pend.link
	// to the word its receive side binds to. An endpoint whose peer is its
	// own rank never gets here: it moves in memory (newCycle).
	newLink(e *cycle) link
	// retire records that one side of the persistent channel whose send
	// side set link is done with it: the send endpoint was freed (send), or
	// the receive side was freed or can never bind (!send). Once both sides
	// retired, the backend may reuse the data path (shmem: its table entry).
	retire(link uint64, send bool)

	// abortAll carries the world's abort ae to its other processes (shmem
	// publishes it in the segment, tcp sends it to the coordinator) as its
	// rank and cause text. Local waits are unblocked by the world's abort
	// channel.
	abortAll(ae *AbortError)

	// progress adds add to this process's completed operations and returns
	// the world-wide count as this process sees it, for the watchdog: chan
	// keeps none (0: its watchdog counts every rank), shmem one segment
	// word every process adds to, tcp its own count plus what the control
	// heartbeats reported of the other processes. The per-completion tick
	// (add 1) must stay lock-free and allocation-free.
	progress(add int64) int64

	// roundCell is the backend's share of the recovery round.
	roundCell

	// close releases transport resources (segments, fds). The world is
	// unusable afterwards.
	close() error
}

// reqOp is the per-request protocol half of a Request: a persistent
// endpoint's *cycle or a one-shot request's *oneshot. The generic half —
// trace/flight/metrics stamping — lives on Request itself.
type reqOp interface {
	// wait parks until the transfer completed, the world aborts or d
	// expires (forever: no bound). On completion it does the bookkeeping
	// (progress tick, receive accounting) and returns the received element
	// count (0 for sends); otherwise the *AbortError on abort, a
	// *TimeoutError on expiry (the operation is still in flight and may be
	// waited again).
	wait(r *Request, d time.Duration) (n int, err error)
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
	w.setTransport(name, tr)
	return w, nil
}

// setTransport installs the world's backend under its registered name,
// once the world's size is final.
func (w *World) setTransport(name string, tr Transport) {
	w.tr, w.backend = tr, name
	w.matchers = make([]matcher, w.size)
}

// Transport returns the name of the backend this world runs on.
func (w *World) Transport() string { return w.backend }

// Close releases the transport's resources (shared segments, fds). Worlds
// on the chan backend hold none, so Close is optional there; shmem worlds
// should be closed when done.
func (w *World) Close() error { return w.tr.close() }
