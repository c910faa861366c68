package harness

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// TestFlightStallWritesArtifactWithCausalChain is the forensics acceptance
// test: a -flight run aborted by the watchdog must write a decodable
// brick-flight/v1 artifact whose pending ops mirror the StallReport, and
// the flightreport rendering must name a causal chain terminating at the
// exact (src, dst, tag) of a pending operation.
func TestFlightStallWritesArtifactWithCausalChain(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flight.bin")
	cfg := baseConfig(Layout)
	cfg.Fault = "stall:rank=0:nth=1:dur=2s"
	cfg.Watchdog = 200 * time.Millisecond
	cfg.Flight = true
	cfg.FlightOut = out
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run returned nil error with a stalled send and an armed watchdog")
	}
	var ae *mpi.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *mpi.AbortError: %v", err)
	}
	rep, ok := ae.Value.(*mpi.StallReport)
	if !ok {
		t.Fatalf("abort value is %T, want *mpi.StallReport", ae.Value)
	}
	if len(rep.FlightTail) == 0 {
		t.Errorf("StallReport carries no flight tail:\n%v", rep)
	}

	snap, err := flight.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact did not decode: %v", err)
	}
	if snap.Reason != "stall" {
		t.Errorf("artifact reason = %q, want \"stall\"", snap.Reason)
	}
	if snap.Depth != flight.DefaultDepth {
		t.Errorf("artifact depth = %d, want default %d", snap.Depth, flight.DefaultDepth)
	}
	if len(snap.Ranks) != 8 {
		t.Fatalf("artifact has %d rank logs, want 8", len(snap.Ranks))
	}
	if len(snap.Pending) != len(rep.Pending) {
		t.Fatalf("artifact pending %d ops, StallReport %d", len(snap.Pending), len(rep.Pending))
	}
	for i, p := range snap.Pending {
		op := rep.Pending[i]
		if p.Kind != op.Kind || p.Src != op.Src || p.Dst != op.Dst || p.Tag != op.Tag {
			t.Errorf("pending %d = %+v, want %+v", i, p, op)
		}
	}

	// The causal analysis must produce, for at least one pending op, a
	// chain whose terminal event sits on that op's endpoint with its tag.
	chains := flight.CausalChains(snap)
	if len(chains) != len(rep.Pending) {
		t.Fatalf("%d causal chains, want one per pending op (%d)", len(chains), len(rep.Pending))
	}
	terminated := false
	for _, ch := range chains {
		if len(ch.Links) == 0 {
			continue
		}
		last := ch.Links[len(ch.Links)-1]
		onEndpoint := last.Rank == ch.Pending.Dst || last.Rank == ch.Pending.Src
		if onEndpoint && last.Event.Tag == int32(ch.Pending.Tag) {
			terminated = true
		}
	}
	if !terminated {
		t.Errorf("no causal chain terminates at a pending op's endpoint: %+v", chains)
	}

	// And the rendered report names the pending (src, dst, tag) verbatim.
	var buf bytes.Buffer
	if err := flight.WriteFlightReport(&buf, snap, 8); err != nil {
		t.Fatal(err)
	}
	op := rep.Pending[0]
	want := "pending " + op.Kind +
		" src=" + strconv.Itoa(op.Src) +
		" dst=" + strconv.Itoa(op.Dst) +
		" tag=" + strconv.Itoa(op.Tag) + ":"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("flightreport output lacks %q:\n%s", want, buf.String())
	}
}

// TestFlightRecorderPreservesChecksums: every CPU implementation must be
// math.Float64bits-identical with the recorder on and off — observability
// must never perturb the numerics.
func TestFlightRecorderPreservesChecksums(t *testing.T) {
	for _, im := range cpuImpls {
		clean, err := Run(baseConfig(im))
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		cfg := baseConfig(im)
		cfg.Flight = true
		cfg.FlightDepth = 128
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v with recorder: %v", im, err)
		}
		if math.Float64bits(res.Checksum) != math.Float64bits(clean.Checksum) {
			t.Errorf("%v: recorder changed checksum %v -> %v", im, clean.Checksum, res.Checksum)
		}
	}
}

// TestFlightOverlapRecordsCausalEvents: an overlapped run (an exchange
// every step) records its causal vocabulary — step marks, the exchange,
// interior and surface phases, send and receive posts, deliveries — in
// every rank's ring.
func TestFlightOverlapRecordsCausalEvents(t *testing.T) {
	rec := flight.New(8, 4096)
	cfg := baseConfig(Layout)
	cfg.FlightRec = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		counts := map[flight.Kind]int{}
		phases := map[int32]int{}
		for _, e := range rec.Rank(r).Events() {
			counts[e.Kind]++
			if e.Kind == flight.KindPhase {
				phases[e.Part]++
			}
		}
		for _, k := range []flight.Kind{flight.KindStep, flight.KindPhase,
			flight.KindSendPost, flight.KindRecvPost, flight.KindDeliver} {
			if counts[k] == 0 {
				t.Errorf("rank %d ring has no %v events (got %v)", r, k, counts)
			}
		}
		steps := counts[flight.KindStep]
		for _, ph := range []int32{flight.PhaseExchange, flight.PhaseInterior, flight.PhaseSurface} {
			if phases[ph] != steps {
				t.Errorf("rank %d: %d marks of phase %d over %d steps, want one per step", r, phases[ph], ph, steps)
			}
		}
	}
}

// TestFlightMetricsExported: a -flight run mirrors every rank's ring totals
// into flight_events_total / flight_events_dropped_total.
func TestFlightMetricsExported(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := baseConfig(Layout)
	cfg.Flight = true
	cfg.FlightDepth = 16 // tiny ring: wraparound guaranteed
	cfg.Metrics = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		lb := metrics.Labels{"rank": strconv.Itoa(r)}
		total := reg.Counter(metrics.FlightEventsTotal, lb).Value()
		dropped := reg.Counter(metrics.FlightEventsDroppedTotal, lb).Value()
		if total == 0 {
			t.Errorf("rank %d: flight_events_total = 0", r)
		}
		if dropped == 0 {
			t.Errorf("rank %d: flight_events_dropped_total = 0 with a 16-deep ring", r)
		}
		if dropped >= total {
			t.Errorf("rank %d: dropped %d >= total %d", r, dropped, total)
		}
	}
}

// TestFlightRecoveryArtifactOnBudgetExhaustion: when the recovery budget
// runs out, the artifact is written with reason "recovery-budget" and the
// rings span all epochs (recovery markers included).
func TestFlightRecoveryArtifactOnBudgetExhaustion(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flight.bin")
	rec := flight.New(8, 4096)
	cfg := baseConfig(Layout)
	cfg.Checkpoint = true
	cfg.CheckpointEvery = 2
	cfg.MaxRecoveries = 1
	// Two one-shot panics against a budget of one: the first recovers, the
	// second exhausts the budget.
	cfg.Fault = "panic:rank=2:step=2,panic:rank=2:step=3"
	cfg.Flight = true
	cfg.FlightOut = out
	cfg.FlightRec = rec
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run recovered from an every-epoch panic")
	}
	if !strings.Contains(err.Error(), "recovery budget exhausted") {
		t.Fatalf("error = %v, want budget exhaustion", err)
	}
	snap, rerr := flight.ReadFile(out)
	if rerr != nil {
		t.Fatalf("artifact did not decode: %v", rerr)
	}
	if snap.Reason != "recovery-budget" {
		t.Errorf("artifact reason = %q, want \"recovery-budget\"", snap.Reason)
	}
	var recoveries, ckpts int
	for _, e := range rec.Rank(2).Events() {
		switch e.Kind {
		case flight.KindRecovery:
			recoveries++
		case flight.KindCkpt:
			ckpts++
		}
	}
	if recoveries != 1 {
		t.Errorf("rank 2 ring has %d recovery markers, want 1 (budget was 1)", recoveries)
	}
	if ckpts == 0 {
		t.Error("rank 2 ring has no checkpoint markers")
	}
	_ = os.Remove(out)
}
