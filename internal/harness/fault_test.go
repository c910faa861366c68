package harness

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// TestRunRankPanicAborts: an injected rank panic must terminate the whole
// 8-rank world — every other rank is released from its blocked exchange —
// and surface as an *mpi.AbortError naming the panicking rank.
func TestRunRankPanicAborts(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		cfg := baseConfig(Layout)
		cfg.Fault = "panic:rank=1:step=2"
		_, err := Run(cfg)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not terminate after an injected rank panic")
	}
	if err == nil {
		t.Fatal("Run returned nil error after an injected rank panic")
	}
	if !errors.Is(err, mpi.ErrAborted) {
		t.Errorf("error does not wrap mpi.ErrAborted: %v", err)
	}
	var ae *mpi.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *mpi.AbortError: %v", err)
	}
	if ae.Rank != 1 {
		t.Errorf("aborting rank = %d, want 1", ae.Rank)
	}
	if !strings.Contains(err.Error(), "injected panic on rank 1 at step 2") {
		t.Errorf("error does not name the injected fault: %v", err)
	}
}

// TestRunAllocFailAborts: an injected plan-compile failure on one rank is
// an ordinary error on that rank; Run must abort the world instead of
// leaving the other seven ranks deadlocked in their first exchange.
func TestRunAllocFailAborts(t *testing.T) {
	for _, im := range []Impl{Layout, YASK} { // one brick path, one grid path
		cfg := baseConfig(im)
		cfg.Fault = "allocfail:rank=3"
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("%v: Run returned nil error under allocfail", im)
		}
		if !errors.Is(err, mpi.ErrAborted) {
			t.Errorf("%v: error does not wrap mpi.ErrAborted: %v", im, err)
		}
		if !strings.Contains(err.Error(), "injected allocation failure on rank 3") {
			t.Errorf("%v: error does not carry the rank's own error: %v", im, err)
		}
	}
}

// TestRunWatchdogReportsStalledSend: a send stalled past the watchdog
// deadline must abort the run with a StallReport, not hang it.
func TestRunWatchdogReportsStalledSend(t *testing.T) {
	cfg := baseConfig(Layout)
	cfg.Fault = "stall:rank=0:nth=1:dur=2s"
	cfg.Watchdog = 200 * time.Millisecond
	start := time.Now()
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Run returned nil error with a stalled send and an armed watchdog")
	}
	var ae *mpi.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an *mpi.AbortError: %v", err)
	}
	if ae.Rank != mpi.WatchdogRank {
		t.Errorf("aborting rank = %d, want WatchdogRank", ae.Rank)
	}
	rep, ok := ae.Value.(*mpi.StallReport)
	if !ok {
		t.Fatalf("abort value is %T, want *mpi.StallReport", ae.Value)
	}
	if len(rep.Pending) == 0 {
		t.Error("StallReport lists no pending operations")
	}
	// The run must end once the stall sleep finishes — well before the
	// stall plus any full exchange would.
	if el := time.Since(start); el > 20*time.Second {
		t.Errorf("stalled run took %v", el)
	}
}

// TestRunMapFailAtAllocDegrades: forcing every rank's MemMap arena to an
// unmapped allocation must degrade the exchanger to copy windows, count
// exchange_degraded_total, and leave the checksum bit-identical.
func TestRunMapFailAtAllocDegrades(t *testing.T) {
	clean, err := Run(baseConfig(MemMap))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := baseConfig(MemMap)
	cfg.Fault = "mapfail:rank=*"
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(clean.Checksum) {
		t.Errorf("degraded checksum %v differs from clean %v", res.Checksum, clean.Checksum)
	}
	if res.Plan == nil || res.Plan.Degraded == "" {
		t.Fatalf("plan summary not marked degraded: %+v", res.Plan)
	}
	var degraded int64
	for r := 0; r < 8; r++ {
		degraded += reg.Counter(metrics.ExchangeDegradedTotal, metrics.Labels{
			"impl": "MemMap", "rank": strconv.Itoa(r), "reason": res.Plan.Degraded}).Value()
	}
	if degraded < 1 {
		t.Errorf("exchange_degraded_total = %d, want >= 1", degraded)
	}
	var injected int64
	for r := 0; r < 8; r++ {
		injected += reg.Counter(metrics.FaultInjectedTotal, metrics.Labels{
			"kind": "mapfail", "rank": strconv.Itoa(r)}).Value()
	}
	if injected != 8 {
		t.Errorf("fault_injected_total{kind=mapfail} = %d, want 8", injected)
	}
}

// TestShiftMapFailReportsReason: Shift's slab windows fall back to copies
// on an unmapped arena exactly as MemMap's views do, so the plan summary and
// exchange_degraded_total must name the same reason MemMap's do.
func TestShiftMapFailReportsReason(t *testing.T) {
	reasons := map[Impl]string{}
	for _, im := range []Impl{MemMap, Shift} {
		reg := metrics.NewRegistry()
		cfg := baseConfig(im)
		cfg.Fault = "mapfail:rank=0"
		cfg.Metrics = reg
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		if res.Plan == nil {
			t.Fatalf("%v: no plan summary", im)
		}
		reasons[im] = res.Plan.Degraded
		if n := reg.Counter(metrics.ExchangeDegradedTotal, metrics.Labels{
			"impl": im.String(), "rank": "0", "reason": res.Plan.Degraded}).Value(); n != 1 {
			t.Errorf("%v: exchange_degraded_total{rank=0, reason=%q} = %d, want 1", im, res.Plan.Degraded, n)
		}
	}
	if reasons[MemMap] != core.DegradeUnmappedArena {
		t.Errorf("MemMap degraded reason = %q, want %q", reasons[MemMap], core.DegradeUnmappedArena)
	}
	if reasons[Shift] != reasons[MemMap] {
		t.Errorf("Shift degraded reason = %q, want MemMap's %q", reasons[Shift], reasons[MemMap])
	}
}

// TestRunMidRunDegradeBitIdentical: a mapfail fault with a step degrades
// the MemMap views to copy windows mid-run; results must not change.
func TestRunMidRunDegradeBitIdentical(t *testing.T) {
	clean, err := Run(baseConfig(MemMap))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(MemMap)
	cfg.Fault = "mapfail:rank=*:step=3" // steps count warmup: mid-timed-run
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Checksum) != math.Float64bits(clean.Checksum) {
		t.Errorf("mid-run degraded checksum %v differs from clean %v", res.Checksum, clean.Checksum)
	}
	if res.Plan == nil || res.Plan.Degraded != "forced" {
		t.Errorf("plan summary degraded = %+v, want forced", res.Plan)
	}
}

// TestRunBadFaultSpecRejected: a malformed spec is a configuration error,
// reported before any rank starts.
func TestRunBadFaultSpecRejected(t *testing.T) {
	cfg := baseConfig(Layout)
	cfg.Fault = "panic:rank=banana"
	if _, err := Run(cfg); err == nil {
		t.Fatal("malformed fault spec accepted")
	}
}
