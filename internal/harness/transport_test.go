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

	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
)

// skipWithoutShmem skips tests that need a file-backed shared segment
// (cross-process worlds are impossible on heap-backed fallback arenas).
func skipWithoutShmem(t *testing.T) {
	t.Helper()
	w, err := mpi.NewWorldOn("shmem", 1)
	if err != nil {
		t.Skipf("shmem transport unavailable: %v", err)
	}
	defer w.Close()
	if w.ShmemFile() == nil {
		t.Skip("shmem arena fell back to the heap; cross-process worlds unavailable")
	}
}

func supervisedConfig(im Impl) Config {
	cfg := baseConfig(im)
	cfg.Steps = 2
	cfg.Transport = "shmem"
	// A supervised bug must fail loud in CI, not hang eight processes.
	cfg.Watchdog = 20 * time.Second
	return cfg
}

// TestSupervisedParityAllImpls is the transport seam's acceptance gate:
// every measured CPU implementation, at both exchange periods (schedCells),
// must produce a Float64bits-identical checksum whether the eight ranks are
// goroutines of this process (chan) or eight spawned worker processes over
// a shared segment (shmem).
func TestSupervisedParityAllImpls(t *testing.T) {
	skipWithoutShmem(t)
	for _, c := range schedCells() {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			chanCfg := c.apply(supervisedConfig(c.im))
			chanCfg.Transport = ""
			cres, err := Run(chanCfg)
			if err != nil {
				t.Fatalf("chan run: %v", err)
			}
			sres, err := Run(c.apply(supervisedConfig(c.im)))
			if err != nil {
				t.Fatalf("shmem run: %v", err)
			}
			if math.Float64bits(cres.Checksum) != math.Float64bits(sres.Checksum) {
				t.Fatalf("checksum diverged across transports: chan %v, shmem %v",
					cres.Checksum, sres.Checksum)
			}
			if math.Abs(cres.Checksum) < 1e-9 {
				t.Fatalf("degenerate checksum %v", cres.Checksum)
			}
			if sres.Calc.N() == 0 || sres.Comm.N() == 0 {
				t.Fatalf("supervised result lost its summaries: calc n=%d comm n=%d",
					sres.Calc.N(), sres.Comm.N())
			}
		})
	}
}

// TestSupervisedNoStall runs a shape that once wedged at cycle one on
// shmem — 2×1×1 ranks, 16³, an exchange every step, a few hundred steps,
// watchdog armed — several times, because a race at the first Wait showed
// in roughly every other run. Each run must finish (a stall surfaces as
// the watchdog's abort) with the in-process checksum.
func TestSupervisedNoStall(t *testing.T) {
	skipWithoutShmem(t)
	for _, im := range []Impl{Layout, MemMap} {
		cfg := baseConfig(im)
		cfg.Procs = [3]int{2, 1, 1}
		cfg.Workers = 2
		cfg.Steps = 200
		cfg.Watchdog = 10 * time.Second
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v chan run: %v", im, err)
		}
		cfg.Transport = "shmem"
		for i := 0; i < 4; i++ {
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v shmem run %d: %v", im, i, err)
			}
			if math.Float64bits(got.Checksum) != math.Float64bits(want.Checksum) {
				t.Fatalf("%v shmem run %d: checksum %v, chan %v", im, i, got.Checksum, want.Checksum)
			}
		}
	}
}

// TestSupervisedMapfailDegrades: a mapfail fault inside one worker process
// must degrade that rank's MemMap windows to copies without wedging its
// peers' persistent receives in other processes — the cross-process form
// of the degradation contract — and leave results bit-identical to a clean
// in-process run.
func TestSupervisedMapfailDegrades(t *testing.T) {
	skipWithoutShmem(t)
	clean := supervisedConfig(MemMap)
	clean.Transport = ""
	clean.Watchdog = 0
	cres, err := Run(clean)
	if err != nil {
		t.Fatalf("clean chan run: %v", err)
	}
	faulted := supervisedConfig(MemMap)
	faulted.Fault = "mapfail:rank=1"
	fres, err := Run(faulted)
	if err != nil {
		t.Fatalf("shmem run with mapfail: %v", err)
	}
	if math.Float64bits(cres.Checksum) != math.Float64bits(fres.Checksum) {
		t.Fatalf("mapfail degradation changed results: clean %v, degraded %v",
			cres.Checksum, fres.Checksum)
	}
}

// TestSupervisedAbortSurfaces: a panic inside one worker process must
// abort the whole cross-process world — peers unwind instead of spinning
// on the dead rank — and surface from Run as an error identifying the
// abort, exactly like the in-process AbortError path.
func TestSupervisedAbortSurfaces(t *testing.T) {
	skipWithoutShmem(t)
	cfg := supervisedConfig(Layout)
	cfg.Fault = "panic:rank=3:step=1"
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("worker panic did not surface")
	}
	if !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("error does not wrap mpi.ErrAborted: %v", err)
	}
}

// TestSupervisedFlightArtifacts: a failed supervised run writes one
// brick-flight/v1 artifact per worker, suffixed .rank<N>, each tagged with
// the shmem transport in its header.
func TestSupervisedFlightArtifacts(t *testing.T) {
	skipWithoutShmem(t)
	dir := t.TempDir()
	cfg := supervisedConfig(Layout)
	cfg.Fault = "panic:rank=2:step=1"
	cfg.Flight = true
	cfg.FlightOut = filepath.Join(dir, "soak-flight.bin")
	if _, err := Run(cfg); err == nil {
		t.Fatal("faulted run succeeded")
	}
	found := 0
	for r := 0; r < cfg.ranks(); r++ {
		path := fmt.Sprintf("%s.rank%d", cfg.FlightOut, r)
		if _, err := os.Stat(path); err != nil {
			continue
		}
		snap, err := flight.ReadFile(path)
		if err != nil {
			t.Fatalf("rank %d artifact: %v", r, err)
		}
		if snap.Transport != "shmem" {
			t.Fatalf("rank %d artifact transport = %q, want shmem", r, snap.Transport)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no per-worker flight artifacts written")
	}
}

// TestSupervisedGates: the observability hooks that cannot span worker
// processes are rejected up front with actionable errors, not silently
// dropped.
func TestSupervisedGates(t *testing.T) {
	base := supervisedConfig(Layout)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"gpu-impl", func(c *Config) { c.Impl = GPULayoutCA }},
		{"metrics", func(c *Config) { c.Metrics = metrics.NewRegistry() }},
		{"flightrec", func(c *Config) { c.FlightRec = flight.New(8, 0) }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted on a supervised transport", tc.name)
		}
	}
	// Checkpoint recovery IS supported supervised, with or without a
	// caller-supplied epoch directory.
	cfg := base
	cfg.Checkpoint = true
	if err := cfg.Validate(); err != nil {
		t.Errorf("supervised checkpoint rejected: %v", err)
	}
	// The same hooks stay valid in-process.
	cfg = base
	cfg.Transport = ""
	cfg.Metrics = metrics.NewRegistry()
	cfg.FlightRec = flight.New(8, 0)
	if err := cfg.Validate(); err != nil {
		t.Errorf("in-process hooks rejected: %v", err)
	}
}

// TestProcessFaultsNeedSupervision: a kill/exit clause on the in-process
// chan transport would SIGKILL the harness itself; Run must reject it
// before any rank starts.
func TestProcessFaultsNeedSupervision(t *testing.T) {
	cfg := baseConfig(Layout)
	cfg.Fault = "kill:rank=1:nth=2"
	if _, err := Run(cfg); err == nil {
		t.Fatal("kill clause accepted on the chan transport")
	}
}

// TestSupervisedRecoveryAllImpls is this PR's acceptance gate, crossing
// the checkpoint-recovery gate with the transport-parity gate: every
// measured CPU implementation at both exchange periods, run as eight
// worker processes over a shared segment, must survive an injected SIGKILL
// of one worker mid-run — the
// supervisor quarantines the dead rank, respawns it, and the world replays
// from the latest disk-spilled checkpoint epoch — and still produce a
// math.Float64bits-identical checksum versus a fault-free in-process run.
func TestSupervisedRecoveryAllImpls(t *testing.T) {
	skipWithoutShmem(t)
	for _, c := range schedCells() {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			clean := c.apply(supervisedConfig(c.im))
			clean.Transport = ""
			clean.Watchdog = 0
			cres, err := Run(clean)
			if err != nil {
				t.Fatalf("fault-free chan run: %v", err)
			}
			cfg := c.apply(supervisedConfig(c.im))
			cfg.Fault = "kill:rank=3:nth=2"
			cfg.Checkpoint = true
			cfg.CheckpointEvery = 2
			cfg.CheckpointDir = t.TempDir()
			rres, err := Run(cfg)
			if err != nil {
				t.Fatalf("supervised run did not recover from SIGKILL: %v", err)
			}
			if rres.Recoveries == 0 {
				t.Fatal("injected kill never fired: zero recovery rounds")
			}
			if math.Float64bits(cres.Checksum) != math.Float64bits(rres.Checksum) {
				t.Fatalf("recovered checksum diverged: fault-free chan %v, recovered shmem %v",
					cres.Checksum, rres.Checksum)
			}
			if math.Abs(cres.Checksum) < 1e-9 {
				t.Fatalf("degenerate checksum %v", cres.Checksum)
			}
		})
	}
}

// TestRecoveryPrivateDirAcrossTransports: a checkpointing run given no
// CheckpointDir commits its epochs to a private temporary directory — on
// the worker transports too — survives a SIGKILLed worker bit-identical
// to the fault-free chan run, and removes the directory when it returns.
func TestRecoveryPrivateDirAcrossTransports(t *testing.T) {
	skipWithoutShmem(t)
	clean := supervisedConfig(Layout)
	clean.Transport = ""
	cres, err := Run(clean)
	if err != nil {
		t.Fatalf("fault-free chan run: %v", err)
	}
	for _, tr := range []string{"shmem", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			cfg := supervisedConfig(Layout)
			cfg.Transport = tr
			cfg.Fault = "kill:rank=3:nth=2"
			cfg.Checkpoint = true
			cfg.CheckpointEvery = 2
			rres, err := Run(cfg)
			if err != nil {
				t.Fatalf("run did not recover from SIGKILL: %v", err)
			}
			if rres.Recoveries == 0 {
				t.Fatal("injected kill never fired: zero recovery rounds")
			}
			if math.Float64bits(cres.Checksum) != math.Float64bits(rres.Checksum) {
				t.Fatalf("recovered checksum diverged: fault-free chan %v, recovered %s %v",
					cres.Checksum, tr, rres.Checksum)
			}
			left, err := filepath.Glob(filepath.Join(os.TempDir(), "brick-ckpt-*"))
			if err != nil || len(left) != 0 {
				t.Fatalf("private checkpoint dir left behind: %v %v", left, err)
			}
		})
	}
}

// TestSupervisedRecoveryBudgetExhausted: when a rank keeps dying past
// MaxRecoveries, the run must return (not hang) with the budget error
// wrapping the original death — the fatal signal named — and every
// survivor unwound. Two kill clauses at different send ordinals make the
// respawned incarnation die again after skipping the clause its first
// life died to.
func TestSupervisedRecoveryBudgetExhausted(t *testing.T) {
	skipWithoutShmem(t)
	cfg := supervisedConfig(Layout)
	cfg.Fault = "kill:rank=1:nth=2,kill:rank=1:nth=4"
	cfg.Checkpoint = true
	cfg.CheckpointDir = t.TempDir()
	cfg.MaxRecoveries = 1
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("exhausted recovery budget did not surface as an error")
	}
	for _, want := range []string{"recovery budget exhausted after 1", "SIGKILL"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("budget error lacks %q:\n%v", want, err)
		}
	}
}

// TestSupervisedUnknownTransport: a typo'd backend fails fast with the
// registered names, before any process spawns.
func TestSupervisedUnknownTransport(t *testing.T) {
	cfg := supervisedConfig(Layout)
	cfg.Transport = "rdma"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
