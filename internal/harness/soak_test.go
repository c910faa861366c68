package harness

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/metrics"
)

// soakConfig is a small 8-rank configuration; the soak overrides Impl and
// the fault fields per run.
func soakConfig() Config {
	cfg := baseConfig(Layout)
	cfg.Steps = 3
	cfg.Warmup = 1
	return cfg
}

// TestSoakBenignFaultsBitIdentical is the soak: all eight CPU
// implementations, 8 ranks each, run under per-send delays with jitter and
// a one-shot stall, with the watchdog armed; every checksum must be
// bit-identical to the clean run. make soak executes this under -race.
func TestSoakBenignFaultsBitIdentical(t *testing.T) {
	spec := "delay:rank=*:mean=50us:jitter=0.5,stall:rank=1:nth=3:dur=20ms"
	rep, err := SoakSet(soakConfig(), SoakImpls, spec, 42, 30*time.Second)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	if !rep.AllIdentical() {
		t.Fatalf("checksums changed under benign faults:\n%s", rep)
	}
	if len(rep.Runs) != len(SoakImpls) {
		t.Errorf("soak covered %d implementations, want %d", len(rep.Runs), len(SoakImpls))
	}
	t.Log("\n" + rep.String())
}

// TestSoakMemMapDegradation is the degradation soak: force every rank's
// MemMap arena to fail mapping; the runs must stay bit-identical and the
// degradation must be visible both in the report and in
// exchange_degraded_total.
func TestSoakMemMapDegradation(t *testing.T) {
	reg := metrics.NewRegistry()
	base := soakConfig()
	base.Metrics = reg
	rep, err := SoakSet(base, SoakImpls, "mapfail:rank=*", 7, 30*time.Second)
	if err != nil {
		t.Fatalf("%v\n%s", err, rep)
	}
	var memMap *SoakRun
	for i := range rep.Runs {
		if rep.Runs[i].Impl == MemMap {
			memMap = &rep.Runs[i]
		}
	}
	if memMap == nil {
		t.Fatal("soak did not cover MemMap")
	}
	if memMap.Degraded == "" {
		t.Error("MemMap run did not report degradation under mapfail")
	}
	var degraded int64
	for r := 0; r < 8; r++ {
		degraded += reg.Counter(metrics.ExchangeDegradedTotal, metrics.Labels{
			"impl": "MemMap", "rank": strconv.Itoa(r), "reason": memMap.Degraded}).Value()
	}
	if degraded < 1 {
		t.Errorf("exchange_degraded_total = %d, want >= 1", degraded)
	}
	if !strings.Contains(rep.String(), "degraded=") {
		t.Errorf("report does not surface degradation:\n%s", rep)
	}
}
