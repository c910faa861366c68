package harness

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/ckpt"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// recoverConfig is baseConfig with the recovery driver armed: checkpoints
// every 2 absolute steps, 3 recoveries of budget, watchdog as backstop.
func recoverConfig(im Impl) Config {
	cfg := baseConfig(im)
	cfg.Checkpoint = true
	cfg.CheckpointEvery = 2
	cfg.Watchdog = 5 * time.Second
	return cfg
}

// TestRecoveryPanicBitIdentical is the headline guarantee: for every CPU
// implementation at both exchange periods, a run that loses a rank to an
// injected panic mid-run recovers from the last checkpoint and finishes
// with a checksum bit-identical to the fault-free run.
func TestRecoveryPanicBitIdentical(t *testing.T) {
	for _, c := range schedCells() {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			clean, err := Run(c.apply(baseConfig(c.im)))
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			cfg := c.apply(recoverConfig(c.im))
			cfg.Fault = "panic:rank=3:step=3" // mid-run: one checkpoint behind
			cfg.FaultSeed = 1
			rec, err := Run(cfg)
			if err != nil {
				t.Fatalf("recovered run: %v", err)
			}
			if math.Float64bits(clean.Checksum) != math.Float64bits(rec.Checksum) {
				t.Fatalf("checksum diverged after recovery: clean %v (%x), recovered %v (%x)",
					clean.Checksum, math.Float64bits(clean.Checksum),
					rec.Checksum, math.Float64bits(rec.Checksum))
			}
		})
	}
}

// TestRecoveryCorruptBitIdentical: with receive-side CRC verification on, a
// corrupted payload aborts the world, and replay — whose corrupt clause is
// keyed to a send ordinal already burned — delivers clean, bit-identical
// results.
func TestRecoveryCorruptBitIdentical(t *testing.T) {
	for _, im := range []Impl{Layout, MemMap, YASK} {
		im := im
		t.Run(im.String(), func(t *testing.T) {
			t.Parallel()
			clean, err := Run(baseConfig(im))
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			cfg := recoverConfig(im)
			cfg.Fault = "corrupt:rank=2:nth=40:flips=3"
			cfg.FaultSeed = 3
			cfg.VerifyCRC = true
			rec, err := Run(cfg)
			if err != nil {
				t.Fatalf("recovered run: %v", err)
			}
			if math.Float64bits(clean.Checksum) != math.Float64bits(rec.Checksum) {
				t.Fatalf("checksum diverged after corruption recovery: clean %v, recovered %v",
					clean.Checksum, rec.Checksum)
			}
		})
	}
}

// TestRecoveryBudgetExhausted: a fault that re-fires every epoch (allocfail
// is a persistent rank property) burns the budget; the run then fails loud
// with the original abort chain.
func TestRecoveryBudgetExhausted(t *testing.T) {
	cfg := recoverConfig(Layout)
	cfg.Fault = "allocfail:rank=1"
	cfg.MaxRecoveries = 2
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run with a persistent fault succeeded; want budget exhaustion")
	}
	if !strings.Contains(err.Error(), "recovery budget exhausted after 2 recoveries") {
		t.Errorf("error %q does not name the exhausted budget", err)
	}
	if !errors.Is(err, mpi.ErrAborted) {
		t.Error("error chain lost mpi.ErrAborted")
	}
	var ae *mpi.AbortError
	if !errors.As(err, &ae) || ae.Rank != 1 {
		t.Errorf("error chain lost the failing rank: %v", err)
	}
	// recovery_total carries both verdicts: 2 recovered, 1 budget-exhausted.
	snap := reg.Snapshot()
	got := map[string]int64{}
	for _, s := range snap.Counters {
		if s.Name == metrics.RecoveryTotal {
			got[s.Labels["outcome"]] += s.Value
		}
	}
	if got["recovered"] != 2 || got["budget-exhausted"] != 1 {
		t.Errorf("recovery_total outcomes = %v, want recovered=2 budget-exhausted=1", got)
	}
}

// TestRecoveryDegradedCheckpointRoundTrip: a MemMap view forced into the
// copy-window fallback mid-run is checkpointed degraded; the restore after
// a later panic comes back degraded for the same reason, with bit-identical
// results versus a fault-free degraded run.
func TestRecoveryDegradedCheckpointRoundTrip(t *testing.T) {
	// Reference: degrade at step 1, no crash.
	ref := baseConfig(MemMap)
	ref.Fault = "mapfail:rank=*:step=1"
	ref.FaultSeed = 5
	refRes, err := Run(ref)
	if err != nil {
		t.Fatalf("reference degraded run: %v", err)
	}
	if refRes.Plan == nil || refRes.Plan.Degraded == "" {
		t.Fatalf("reference run not degraded: %+v", refRes.Plan)
	}
	// Same degradation, then a panic two steps later: the checkpoint at
	// step 2 snapshots degraded state, and the restore must re-enter the
	// fallback (replay never passes step 1 again).
	cfg := recoverConfig(MemMap)
	cfg.Fault = "mapfail:rank=*:step=1,panic:rank=0:step=3"
	cfg.FaultSeed = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("recovered degraded run: %v", err)
	}
	if res.Plan == nil || res.Plan.Degraded != refRes.Plan.Degraded {
		t.Fatalf("restored degradation reason = %+v, want %q", res.Plan, refRes.Plan.Degraded)
	}
	if math.Float64bits(refRes.Checksum) != math.Float64bits(res.Checksum) {
		t.Fatalf("degraded checksum diverged after recovery: %v vs %v", refRes.Checksum, res.Checksum)
	}
}

// TestRecoveryPlanDigestStable: the plan digest a respawned rank compiles
// must equal the pre-failure digest — asserted inside the runners — and the
// run's plan summary is byte-for-byte the clean run's.
func TestRecoveryPlanDigestStable(t *testing.T) {
	clean, err := Run(baseConfig(Layout))
	if err != nil {
		t.Fatal(err)
	}
	cfg := recoverConfig(Layout)
	cfg.Fault = "panic:rank=5:step=2"
	rec, err := Run(cfg)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if clean.Plan == nil || rec.Plan == nil {
		t.Fatal("missing plan summaries")
	}
	if *clean.Plan != *rec.Plan {
		t.Fatalf("plan summary changed across recovery:\nclean:     %+v\nrecovered: %+v", *clean.Plan, *rec.Plan)
	}
}

// TestRecoveryObservability: a recovered run's metrics carry the
// checkpoint/recovery families and its flight rings carry the ckpt and
// recovery markers the Chrome export and critical-path report show.
func TestRecoveryObservability(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := recoverConfig(Layout)
	// Deep enough that no ring wraps, so every marker is still retained.
	rec := flight.New(cfg.ranks(), 1<<16)
	cfg.Fault = "panic:rank=1:step=3"
	cfg.Metrics = reg
	cfg.FlightRec = rec
	if _, err := Run(cfg); err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, s := range snap.Counters {
		counters[s.Name] += s.Value
	}
	if counters[metrics.CkptBytesTotal] <= 0 {
		t.Error("ckpt_bytes_total not populated")
	}
	if counters[metrics.CkptEpochsTotal] <= 0 {
		t.Error("ckpt_epochs_total not populated")
	}
	if counters[metrics.RecoveryTotal] != 1 {
		t.Errorf("recovery_total = %v, want 1", counters[metrics.RecoveryTotal])
	}
	kinds := map[flight.Kind]int{}
	for _, rl := range rec.Snapshot("test", "", nil).Ranks {
		if rl.Dropped != 0 {
			t.Fatalf("rank %d ring dropped %d events", rl.Rank, rl.Dropped)
		}
		for _, e := range rl.Events {
			kinds[e.Kind]++
		}
	}
	if kinds[flight.KindCkpt] == 0 {
		t.Error("no ckpt events in the flight rings")
	}
	if kinds[flight.KindRecovery] != 1 {
		t.Errorf("%d recovery events in the flight rings, want 1", kinds[flight.KindRecovery])
	}
}

// TestRecoveryCheckpointSpill: with a caller-supplied dir, the newest
// committed epoch stays on disk for postmortem inspection.
func TestRecoveryCheckpointSpill(t *testing.T) {
	cfg := recoverConfig(YASK)
	cfg.Procs = [3]int{2, 1, 1}
	cfg.CheckpointDir = t.TempDir()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	step, err := ckpt.ScanDir(cfg.CheckpointDir, cfg.ranks())
	if err != nil || step < 0 {
		t.Fatalf("no committed epoch on disk: step %d, %v", step, err)
	}
	blob, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, fmt.Sprintf("epoch%d", step), "rank0.ckpt"))
	if err != nil {
		t.Fatalf("spill missing: %v", err)
	}
	snap, err := ckpt.Decode(blob)
	if err != nil {
		t.Fatalf("spill does not decode: %v", err)
	}
	if snap.Rank != 0 || snap.Step != step {
		t.Fatalf("spill snapshot %+v, want rank 0 step %d", snap, step)
	}
}

// TestRecoveryPrunesToNewestEpoch: each commit removes the epochs before
// it, so after a recovered chan run the directory holds exactly one epoch,
// the newest checkpoint step, with its manifest and every rank's file.
func TestRecoveryPrunesToNewestEpoch(t *testing.T) {
	cfg := recoverConfig(Layout)
	cfg.Fault = "panic:rank=3:step=3"
	cfg.CheckpointDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", res.Recoveries)
	}
	ents, err := os.ReadDir(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	newest := (cfg.Warmup + cfg.Steps - 1) / cfg.CheckpointEvery * cfg.CheckpointEvery
	want := fmt.Sprintf("epoch%d", newest)
	if len(ents) != 1 || ents[0].Name() != want {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("checkpoint dir holds %v, want only %s", names, want)
	}
	if _, err := os.Stat(filepath.Join(cfg.CheckpointDir, want, "MANIFEST.json")); err != nil {
		t.Fatalf("newest epoch lacks its manifest: %v", err)
	}
	if step, err := ckpt.ScanDir(cfg.CheckpointDir, cfg.ranks()); err != nil || step != newest {
		t.Fatalf("ScanDir = %d, %v; want %d", step, err, newest)
	}
}

// TestSoakSetWithRecovery: the soak harness drives a crash-and-recover
// sweep and still demands bit-identity (the cmd/soak -recover path).
func TestSoakSetWithRecovery(t *testing.T) {
	base := recoverConfig(Layout)
	rep, err := SoakSet(base, []Impl{Layout, MemMap}, "panic:rank=2:step=3", 1, 5*time.Second)
	if err != nil {
		t.Fatalf("recovery soak: %v\n%s", err, rep)
	}
	if !rep.AllIdentical() {
		t.Fatalf("recovery soak not bit-identical:\n%s", rep)
	}
}
