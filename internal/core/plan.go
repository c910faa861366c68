package core

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Exchanger is the single lifecycle every ghost-zone exchange variant
// implements: compile the message plan once (at construction), then drive
// Start → Complete once per step, and Close at end of run.
//
//	Plan()     — the immutable compiled message plan (built once per run)
//	Start()    — post one exchange; returns the number of sends posted
//	Complete() — block until the exchange finished (including any unpack)
//	Timings()  — drain the pack/call/wait time accumulated since last drain
//	Stats()    — cumulative plan-reuse counters (starts, bytes started)
//	Close()    — release plan resources (views, persistent endpoints)
//
// Start/Complete reuse pre-matched rank-to-rank channels and preallocated
// buffers, so the per-step hot path performs no heap allocation and no tag
// matching. An Exchanger is driven by one goroutine at a time (Start and
// Complete may be called from different goroutines of the same rank, as in
// comm/compute overlap, but never concurrently).
//
// Variants that cannot split posting from completion (the shift exchange's
// serialized phases) perform the whole exchange in Start; their Complete
// is a no-op.
type Exchanger interface {
	Plan() *ExchangePlan
	Start() int
	Complete()
	Timings() PhaseTimings
	Stats() PlanStats
	Close() error
}

// PlanMsg is one compiled message of an exchange plan.
type PlanMsg struct {
	Peer  int   `json:"peer"`
	Tag   int   `json:"tag"`
	Bytes int64 `json:"bytes"`
}

// ExchangePlan is the compiled, immutable message plan of one exchanger:
// the per-step sends and receives with their peers, tags, and payload
// sizes. It is built once per run; every step reuses it unchanged.
type ExchangePlan struct {
	// Variant names the exchange family that compiled the plan:
	// "spans" (Basic/Layout contiguous brick runs), "memmap" (per-neighbor
	// mapped views), "shift" (dimension-serialized slabs), "pack"
	// (pack/unpack staging), "types" (derived-datatype staging).
	Variant string    `json:"variant"`
	Sends   []PlanMsg `json:"sends"`
	Recvs   []PlanMsg `json:"recvs"`
	// Degraded is the reason the exchanger runs copy-based windows instead
	// of zero-copy mapped views (heap-storage, unmapped-arena, map-failed,
	// forced), or empty at full service. It is excluded from the Digest: a
	// degraded plan moves the same bytes between the same peers, it just
	// pays extra on-node copies.
	Degraded string `json:"degraded,omitempty"`
}

// SendBytes totals the payload of one round of sends.
func (p *ExchangePlan) SendBytes() int64 {
	var n int64
	for _, m := range p.Sends {
		n += m.Bytes
	}
	return n
}

// RecvBytes totals the payload of one round of receives.
func (p *ExchangePlan) RecvBytes() int64 {
	var n int64
	for _, m := range p.Recvs {
		n += m.Bytes
	}
	return n
}

// Digest is a stable FNV-1a hash of the ordered message list (variant,
// sends, recvs). Two plans with the same digest move the same bytes between
// the same peers with the same tags.
func (p *ExchangePlan) Digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n", p.Variant)
	for _, m := range p.Sends {
		fmt.Fprintf(h, "s %d %d %d\n", m.Peer, m.Tag, m.Bytes)
	}
	for _, m := range p.Recvs {
		fmt.Fprintf(h, "r %d %d %d\n", m.Peer, m.Tag, m.Bytes)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// PlanSummary is the compact, serializable description of a compiled plan
// recorded into results and bench baselines.
type PlanSummary struct {
	Variant   string `json:"variant"`
	Degraded  string `json:"degraded,omitempty"`
	Sends     int    `json:"sends"`
	Recvs     int    `json:"recvs"`
	SendBytes int64  `json:"send_bytes"`
	RecvBytes int64  `json:"recv_bytes"`
	Digest    string `json:"digest"`
}

// Summary computes the plan's summary.
func (p *ExchangePlan) Summary() PlanSummary {
	return PlanSummary{
		Variant:   p.Variant,
		Degraded:  p.Degraded,
		Sends:     len(p.Sends),
		Recvs:     len(p.Recvs),
		SendBytes: p.SendBytes(),
		RecvBytes: p.RecvBytes(),
		Digest:    p.Digest(),
	}
}

// PhaseTimings is the exchange-internal time split of one or more steps:
// Pack is on-node staging copies (gather/scatter, pack/unpack, datatype
// walks), Call is posting/starting transfers, Wait is blocking on
// completion. Pack-free paths report Pack == 0 exactly — the
// pack timer only runs when staging work exists.
type PhaseTimings struct {
	Pack time.Duration
	Call time.Duration
	Wait time.Duration
}

// PlanStats counts plan reuse: how many times the compiled plan was
// started and how many payload bytes those starts posted. One plan with
// many starts is the point of the persistent design.
type PlanStats struct {
	Starts     int64
	StartBytes int64
}

// planBase carries the plan, timing, and reuse-stat state of an Exchanger.
// An Engine records into its own; Shift's three phase engines share one.
type planBase struct {
	plan      ExchangePlan
	sendBytes int64 // cached plan.SendBytes() so recordStart is loop-free
	tm        PhaseTimings
	stats     PlanStats
}

// markDegraded records why the exchanger fell back to copy-based windows.
// The first reason wins — later degradations of an already-degraded plan
// do not overwrite the original cause.
func (b *planBase) markDegraded(reason string) {
	if b.plan.Degraded == "" {
		b.plan.Degraded = reason
	}
}

// Plan returns the compiled plan.
func (b *planBase) Plan() *ExchangePlan { return &b.plan }

// Timings returns and resets the accumulated phase times.
func (b *planBase) Timings() PhaseTimings {
	t := b.tm
	b.tm = PhaseTimings{}
	return t
}

// Stats returns the cumulative plan-reuse counters.
func (b *planBase) Stats() PlanStats { return b.stats }

// recordStart accounts one Start of the compiled plan.
func (b *planBase) recordStart() {
	b.stats.Starts++
	b.stats.StartBytes += b.sendBytes
}
