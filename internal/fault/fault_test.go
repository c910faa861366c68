package fault

import (
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/metrics"
)

func TestParseEmptyDisablesInjection(t *testing.T) {
	in, err := Parse("", 1)
	if err != nil || in != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", in, err)
	}
	// Every hook must be nil-safe.
	if in.Enabled() || in.SendDelay(0) != 0 || in.MapFailAtAlloc(0) ||
		in.DegradeAtStep(0, 0) || in.AllocFail(0) || in.Seed() != 0 || in.String() != "" {
		t.Error("nil injector must inject nothing")
	}
	in.StepPanic(0, 0) // must not panic
	in.SetMetrics(nil) // must not crash
	in.ProcessFault(0) // must not kill the test binary
	in.SkipProcessFaults(0, 1)
	if in.HasProcessFaults() {
		t.Error("nil injector claims process faults")
	}
}

// badSpecs are malformed specs Parse must reject; FuzzParse seeds from them.
var badSpecs = []string{
	"nonsense:rank=0",
	"delay:rank=0",                  // missing mean
	"delay:rank=0:mean=banana",      // bad duration
	"delay:rank=0:mean=1ms:nth=2",   // unknown field for kind
	"delay:rank=-2:mean=1ms",        // bad rank
	"delay:rank=0:mean=1ms:mean=2s", // duplicate field
	"stall:rank=0",                  // missing dur
	"stall:rank=0:nth=0:dur=1s",     // nth is 1-based
	"panic:rank=0:step=-1",
	"mapfail:rank=0:step=x",
	"delay:rank=0:mean=1ms:jitter=2", // jitter out of range
	"  ,  ,  ",                       // clauses but all empty
}

// roundTripSpec holds a clause of every in-process kind; FuzzParse seeds
// from it too.
const roundTripSpec = "delay:rank=*:mean=200us:jitter=0.5,stall:rank=0:nth=5:dur=2s,panic:rank=1:step=3,mapfail:rank=2,mapfail:rank=3:step=4,allocfail:rank=2"

func TestParseErrors(t *testing.T) {
	for _, spec := range badSpecs {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	in := MustParse(roundTripSpec, 42)
	if !in.Enabled() || in.Seed() != 42 || in.String() != roundTripSpec {
		t.Fatalf("round trip lost state: %v", in)
	}
	if len(in.delays) != 1 || len(in.stalls) != 1 || len(in.panics) != 1 ||
		len(in.mapFails) != 2 || len(in.allocFails) != 1 {
		t.Fatalf("clause counts wrong: %+v", in)
	}
}

func TestDelayDeterminism(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		in := MustParse("delay:rank=*:mean=1ms:jitter=0.5", seed)
		var out []time.Duration
		for i := 0; i < 16; i++ {
			out = append(out, in.SendDelay(3))
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("send %d: %v != %v with equal seeds", i, a[i], b[i])
		}
		if a[i] < 500*time.Microsecond || a[i] > 1500*time.Microsecond {
			t.Errorf("send %d: delay %v outside mean±jitter", i, a[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter")
	}
}

func TestDelayRankFilter(t *testing.T) {
	in := MustParse("delay:rank=1:mean=1ms", 1)
	if d := in.SendDelay(0); d != 0 {
		t.Errorf("rank 0 delayed %v despite rank=1 filter", d)
	}
	if d := in.SendDelay(1); d != time.Millisecond {
		t.Errorf("rank 1 delay = %v, want 1ms", d)
	}
}

func TestStallFiresOnceAtNthSend(t *testing.T) {
	in := MustParse("stall:rank=0:nth=3:dur=1s", 1)
	for i := 1; i <= 5; i++ {
		d := in.SendDelay(0)
		if i == 3 && d != time.Second {
			t.Errorf("send %d: delay %v, want 1s stall", i, d)
		}
		if i != 3 && d != 0 {
			t.Errorf("send %d: unexpected delay %v", i, d)
		}
	}
	if d := in.SendDelay(1); d != 0 {
		t.Errorf("other rank stalled %v", d)
	}
}

func TestStepPanic(t *testing.T) {
	in := MustParse("panic:rank=1:step=3", 1)
	in.StepPanic(1, 2) // wrong step: no panic
	in.StepPanic(0, 3) // wrong rank: no panic
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no injected panic")
		}
		msg, _ := p.(string)
		if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "step 3") {
			t.Errorf("panic message %q lacks rank/step", msg)
		}
	}()
	in.StepPanic(1, 3)
}

func TestMapFailAllocVsStep(t *testing.T) {
	in := MustParse("mapfail:rank=1,mapfail:rank=2:step=4", 1)
	if !in.MapFailAtAlloc(1) || in.MapFailAtAlloc(2) || in.MapFailAtAlloc(0) {
		t.Error("alloc-time mapfail filter wrong")
	}
	if !in.DegradeAtStep(2, 4) || in.DegradeAtStep(2, 3) || in.DegradeAtStep(1, 4) {
		t.Error("step mapfail filter wrong")
	}
}

func TestAllocFail(t *testing.T) {
	in := MustParse("allocfail:rank=2", 1)
	if in.AllocFail(0) || !in.AllocFail(2) {
		t.Error("allocfail filter wrong")
	}
}

func TestMetricsCounting(t *testing.T) {
	reg := metrics.NewRegistry()
	in := MustParse("delay:rank=*:mean=1ms,stall:rank=0:nth=2:dur=1s", 1)
	in.SetMetrics(reg)
	in.SendDelay(0)
	in.SendDelay(0) // delay + stall
	in.SendDelay(1)
	if got := reg.Counter(metrics.FaultInjectedTotal, metrics.Labels{"kind": "delay", "rank": "0"}).Value(); got != 2 {
		t.Errorf("delay rank 0 count = %d, want 2", got)
	}
	if got := reg.Counter(metrics.FaultInjectedTotal, metrics.Labels{"kind": "stall", "rank": "0"}).Value(); got != 1 {
		t.Errorf("stall rank 0 count = %d, want 1", got)
	}
	if got := reg.Counter(metrics.FaultInjectedTotal, metrics.Labels{"kind": "delay", "rank": "1"}).Value(); got != 1 {
		t.Errorf("delay rank 1 count = %d, want 1", got)
	}
}

func TestParseCorrupt(t *testing.T) {
	in := MustParse("corrupt:rank=1:nth=3:flips=2", 5)
	if len(in.corrupts) != 1 {
		t.Fatalf("clause count: %+v", in)
	}
	if in.String() != "corrupt:rank=1:nth=3:flips=2" {
		t.Errorf("round trip: %q", in.String())
	}
	for _, bad := range []string{
		"corrupt:rank=0:nth=0",         // nth is 1-based
		"corrupt:rank=0:nth=1:flips=0", // flips must be positive
		"corrupt:rank=0:nth=1:step=2",  // unknown field for kind
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestCorruptSendFiresOnceAtNthSend(t *testing.T) {
	in := MustParse("corrupt:rank=0:nth=2:flips=3", 9)
	var fired []int
	for i := 1; i <= 4; i++ {
		in.SendDelay(0) // advances the shared send counter
		if flips := in.CorruptSend(0, 16); flips != nil {
			fired = append(fired, i)
			if len(flips) != 3 {
				t.Errorf("send %d: %d flips, want 3", i, len(flips))
			}
			for _, fl := range flips {
				if fl.Off < 0 || fl.Off >= 8*16 || fl.Mask == 0 {
					t.Errorf("flip %+v out of range or no-op", fl)
				}
			}
		}
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("corruption fired at sends %v, want [2]", fired)
	}
	in.SendDelay(1)
	if in.CorruptSend(1, 16) != nil {
		t.Error("other rank corrupted despite rank=0 filter")
	}
}

func TestCorruptSendDeterministic(t *testing.T) {
	flipsOf := func() []ByteFlip {
		in := MustParse("corrupt:rank=0:nth=1:flips=4", 11)
		in.SendDelay(0)
		return in.CorruptSend(0, 32)
	}
	a, b := flipsOf(), flipsOf()
	if len(a) != len(b) {
		t.Fatalf("flip counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestParseProcessFaults: the kill/exit grammar. rank=* is rejected (a
// clause that kills every worker leaves nothing to recover), exit needs an
// in-range status, and parsed clauses round-trip and report themselves via
// HasProcessFaults so drivers can refuse them off the supervised path.
func TestParseProcessFaults(t *testing.T) {
	spec := "kill:rank=3:nth=2,exit:rank=1:code=7"
	in := MustParse(spec, 1)
	if !in.HasProcessFaults() || len(in.procs) != 2 {
		t.Fatalf("clause counts wrong: %+v", in)
	}
	if in.String() != spec {
		t.Errorf("round trip: %q", in.String())
	}
	k, e := in.procs[0], in.procs[1]
	if k.rank != 3 || k.nth != 2 || k.exit {
		t.Errorf("kill clause = %+v", k)
	}
	if e.rank != 1 || e.nth != 1 || !e.exit || e.code != 7 {
		t.Errorf("exit clause = %+v (nth defaults to 1)", e)
	}
	if MustParse("delay:rank=0:mean=1ms", 1).HasProcessFaults() {
		t.Error("delay-only injector claims process faults")
	}
	for _, bad := range []string{
		"kill:rank=*",          // must name one rank
		"kill",                 // ditto (empty rank means *)
		"kill:rank=0:nth=0",    // nth is 1-based
		"kill:rank=0:code=3",   // code is exit-only
		"exit:rank=0",          // missing status
		"exit:rank=0:code=0",   // zero is success, not a death
		"exit:rank=0:code=256", // out of the 8-bit status range
		"exit:rank=*:code=3",   // must name one rank
		"kill:rank=0:step=2",   // unknown field for kind
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestSkipProcessFaults: the respawn-determinism contract. A respawned
// worker skips as many clause matches as it has dead predecessor lives; a
// broken skip would exit this very test process, so surviving the matching
// ordinal IS the assertion. Uses exit (not kill) so a regression fails the
// test run with a status instead of vanishing it.
func TestSkipProcessFaults(t *testing.T) {
	in := New(1).WithExit(0, 2, 7).WithExit(0, 4, 9)
	in.SkipProcessFaults(0, 1)
	for i := 1; i <= 3; i++ {
		in.SendDelay(0)
		in.ProcessFault(0) // send 2's clause must be swallowed by the skip
	}
	// The skip is per-rank: rank 1 has no skips and no matching clause.
	in.SendDelay(1)
	in.ProcessFault(1)
	// A second skip covers the nth=4 clause too; without it, the next
	// ProcessFault(0) would exit 9.
	in.SkipProcessFaults(0, 1)
	in.SendDelay(0)
	in.ProcessFault(0)
}

func TestStepPanicOneShot(t *testing.T) {
	in := MustParse("panic:rank=0:step=2", 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no injected panic")
			}
		}()
		in.StepPanic(0, 2)
	}()
	// Replay passes the same step again: the clause must not re-fire, or a
	// recovered run would die in the same place forever.
	in.StepPanic(0, 2)
}
