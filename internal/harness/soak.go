package harness

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// SoakImpls is the CPU implementation set the soak runner drives: every
// measured (non-modeled) exchange variant.
var SoakImpls = []Impl{YASK, MPITypes, Basic, Layout, MemMap, Shift}

// SoakRun is one implementation's soak outcome: the clean and the
// fault-injected run of the same configuration, compared bit-for-bit.
type SoakRun struct {
	Impl          Impl    `json:"impl"`
	CleanChecksum float64 `json:"clean_checksum"`
	FaultChecksum float64 `json:"fault_checksum"`
	// Identical reports math.Float64bits equality of the two checksums —
	// the soak's pass condition. Benign faults (delays, stalls, map
	// failures) may change timing and data-movement cost, never results.
	Identical bool `json:"identical"`
	// Degraded carries the faulted run's plan degradation reason, if any
	// (e.g. unmapped-arena under a mapfail fault).
	Degraded string `json:"degraded,omitempty"`
}

// SoakReport aggregates one soak sweep.
type SoakReport struct {
	Fault    string        `json:"fault"`
	Seed     int64         `json:"seed"`
	Watchdog time.Duration `json:"watchdog"`
	Runs     []SoakRun     `json:"runs"`
}

// AllIdentical reports whether every implementation survived injection
// with bit-identical results.
func (r *SoakReport) AllIdentical() bool {
	for _, run := range r.Runs {
		if !run.Identical {
			return false
		}
	}
	return true
}

// String renders the per-implementation verdict table logged by make soak.
func (r *SoakReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: fault=%q seed=%d watchdog=%v\n", r.Fault, r.Seed, r.Watchdog)
	for _, run := range r.Runs {
		verdict := "ok"
		if !run.Identical {
			verdict = "CHECKSUM MISMATCH"
		}
		fmt.Fprintf(&b, "  %-10s %s checksum=%v", run.Impl, verdict, run.CleanChecksum)
		if run.Degraded != "" {
			fmt.Fprintf(&b, " degraded=%s", run.Degraded)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SoakSet runs each implementation in impls twice on the base
// configuration — once clean (checkpointing off: the pure fault-free
// baseline), once under the fault spec with the watchdog armed and base's
// recovery settings in force — and verifies the final checksums are
// bit-identical. base.Impl is overridden per run; base.Fault/FaultSeed/
// Watchdog are overridden by the soak's own parameters. With
// base.Checkpoint set, the faulted run is allowed to crash and recover:
// bit-identity then asserts deterministic replay, not merely benign
// injection. The first run failure (a non-benign fault without recovery,
// an exhausted recovery budget, a checksum mismatch) is returned as an
// error alongside the partial report.
func SoakSet(base Config, impls []Impl, faultSpec string, seed int64, watchdog time.Duration) (*SoakReport, error) {
	rep := &SoakReport{Fault: faultSpec, Seed: seed, Watchdog: watchdog}
	for _, im := range impls {
		clean := base
		clean.Impl = im
		clean.Fault, clean.FaultSeed, clean.Watchdog = "", 0, watchdog
		clean.Checkpoint = false
		cres, err := Run(clean)
		if err != nil {
			return rep, fmt.Errorf("soak: %v clean run: %w", im, err)
		}
		faulted := base
		faulted.Impl = im
		faulted.Fault, faulted.FaultSeed, faulted.Watchdog = faultSpec, seed, watchdog
		fres, err := Run(faulted)
		if err != nil {
			return rep, fmt.Errorf("soak: %v faulted run: %w", im, err)
		}
		run := SoakRun{
			Impl:          im,
			CleanChecksum: cres.Checksum,
			FaultChecksum: fres.Checksum,
			Identical:     math.Float64bits(cres.Checksum) == math.Float64bits(fres.Checksum),
		}
		if fres.Plan != nil {
			run.Degraded = fres.Plan.Degraded
		}
		rep.Runs = append(rep.Runs, run)
		if !run.Identical {
			return rep, fmt.Errorf("soak: %v checksum changed under faults: clean %v, faulted %v",
				im, cres.Checksum, fres.Checksum)
		}
	}
	return rep, nil
}
