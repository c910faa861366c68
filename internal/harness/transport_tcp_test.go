package harness

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/bricklab/brick/internal/mpi"
)

func tcpConfig(im Impl) Config {
	cfg := supervisedConfig(im)
	cfg.Transport = "tcp"
	return cfg
}

// TestTCPParityAllImpls is the tcp backend's acceptance gate: every
// measured CPU implementation, at both exchange periods, must produce a
// Float64bits-identical checksum whether the eight ranks are goroutines of
// this process (chan) or eight spawned worker processes over framed
// loopback TCP streams.
func TestTCPParityAllImpls(t *testing.T) {
	for _, c := range schedCells() {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			chanCfg := c.apply(tcpConfig(c.im))
			chanCfg.Transport = ""
			cres, err := Run(chanCfg)
			if err != nil {
				t.Fatalf("chan run: %v", err)
			}
			tres, err := Run(c.apply(tcpConfig(c.im)))
			if err != nil {
				t.Fatalf("tcp run: %v", err)
			}
			if math.Float64bits(cres.Checksum) != math.Float64bits(tres.Checksum) {
				t.Fatalf("checksum diverged across transports: chan %v, tcp %v",
					cres.Checksum, tres.Checksum)
			}
			if math.Abs(cres.Checksum) < 1e-9 {
				t.Fatalf("degenerate checksum %v", cres.Checksum)
			}
			if tres.Calc.N() == 0 || tres.Comm.N() == 0 {
				t.Fatalf("tcp result lost its summaries: calc n=%d comm n=%d",
					tres.Calc.N(), tres.Comm.N())
			}
		})
	}
}

// TestTCPNetFaultRecovery crosses the network-fault grammar with
// checkpointed recovery: under an injected frame drop (lost-frame abort),
// a frame duplication (exactly-once filter), a per-frame delay, and a
// mid-run SIGKILL of one worker, the tcp world must recover — replaying
// from the latest disk-spilled checkpoint — and still produce a
// math.Float64bits-identical checksum versus a fault-free in-process run.
func TestTCPNetFaultRecovery(t *testing.T) {
	clean := tcpConfig(Layout)
	clean.Transport = ""
	clean.Watchdog = 0
	cres, err := Run(clean)
	if err != nil {
		t.Fatalf("fault-free chan run: %v", err)
	}
	cfg := tcpConfig(Layout)
	cfg.Fault = "netdrop:rank=1:nth=6,netdup:rank=2:nth=4,netdelay:rank=0:mean=200us:jitter=0.5,kill:rank=3:nth=3"
	cfg.Checkpoint = true
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = t.TempDir()
	cfg.MaxRecoveries = 4
	rres, err := Run(cfg)
	if err != nil {
		t.Fatalf("tcp run did not recover from injected network faults: %v", err)
	}
	if rres.Recoveries == 0 {
		t.Fatal("injected faults never fired: zero recovery rounds")
	}
	if math.Float64bits(cres.Checksum) != math.Float64bits(rres.Checksum) {
		t.Fatalf("recovered checksum diverged: fault-free chan %v, recovered tcp %v",
			cres.Checksum, rres.Checksum)
	}
}

// TestTCPFrameDropFailsLoud: without checkpoint recovery armed, a dropped
// frame must surface as a world abort naming the sequence gap — never a
// silent hang or a silently wrong answer.
func TestTCPFrameDropFailsLoud(t *testing.T) {
	cfg := tcpConfig(Layout)
	cfg.Fault = "netdrop:rank=1:nth=6"
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("dropped frame did not surface")
	}
	if !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("error does not wrap mpi.ErrAborted: %v", err)
	}
	if !strings.Contains(err.Error(), "lost") {
		t.Fatalf("abort does not name the frame loss: %v", err)
	}
}

// TestTCPFrameDupIsFiltered: a duplicated frame is absorbed by the
// receiver's exactly-once filter — the run completes with results
// bit-identical to a clean in-process run.
func TestTCPFrameDupIsFiltered(t *testing.T) {
	clean := tcpConfig(Layout)
	clean.Transport = ""
	clean.Watchdog = 0
	cres, err := Run(clean)
	if err != nil {
		t.Fatalf("clean chan run: %v", err)
	}
	cfg := tcpConfig(Layout)
	cfg.Fault = "netdup:rank=1:nth=6,netdup:rank=2:nth=9"
	dres, err := Run(cfg)
	if err != nil {
		t.Fatalf("tcp run with duplicated frames: %v", err)
	}
	if math.Float64bits(cres.Checksum) != math.Float64bits(dres.Checksum) {
		t.Fatalf("duplicate frames changed results: clean %v, dup %v",
			cres.Checksum, dres.Checksum)
	}
}

// TestTCPNetFaultSkipsSelfChannels: network fault ordinals count frames,
// and a rank's persistent channels to itself have none. In a 1×1×1
// periodic world every halo message is one, so a drop of rank 0's first
// frame never fires and the run finishes Float64bits-identical to the
// fault-free in-process run.
func TestTCPNetFaultSkipsSelfChannels(t *testing.T) {
	clean := tcpConfig(Layout)
	clean.Procs = [3]int{1, 1, 1}
	clean.Transport = ""
	clean.Watchdog = 0
	cres, err := Run(clean)
	if err != nil {
		t.Fatalf("fault-free chan run: %v", err)
	}
	cfg := tcpConfig(Layout)
	cfg.Procs = [3]int{1, 1, 1}
	cfg.Fault = "netdrop:rank=0:nth=1"
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("tcp run with a drop armed and no frame to drop: %v", err)
	}
	if math.Float64bits(cres.Checksum) != math.Float64bits(res.Checksum) {
		t.Fatalf("checksum diverged: fault-free chan %v, tcp %v", cres.Checksum, res.Checksum)
	}
}

// TestTCPWorkerDeathFailsLoud: without recovery armed, a SIGKILLed tcp
// worker must end the run with the supervisor's hard-death error — the
// survivors unwound by the world-wide abort, not hung on a dead peer.
func TestTCPWorkerDeathFailsLoud(t *testing.T) {
	cfg := tcpConfig(Layout)
	cfg.Fault = "kill:rank=2:nth=2"
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("worker death did not surface")
	}
	for _, want := range []string{"worker died hard", "SIGKILL"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("death error lacks %q:\n%v", want, err)
		}
	}
}

// TestNetFaultsNeedTCP: frame-layer fault clauses act below message
// matching, where only the tcp transport has frames; on chan and shmem
// the spec must be rejected up front, not silently ignored.
func TestNetFaultsNeedTCP(t *testing.T) {
	for _, transport := range []string{"", "shmem"} {
		cfg := baseConfig(Layout)
		cfg.Transport = transport
		cfg.Fault = "netdrop:rank=0:nth=2"
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("transport %q accepted a net fault spec", cfg.transportName())
			continue
		}
		if !strings.Contains(err.Error(), "tcp") {
			t.Errorf("transport %q rejection does not point at tcp: %v", cfg.transportName(), err)
		}
	}
}

// TestTCPWorkerRuntimeSized: the worker processes of a 2-rank tcp run with
// one compute worker each run their rank at GOMAXPROCS 1, while goroutine
// ranks on chan keep this process's GOMAXPROCS.
func TestTCPWorkerRuntimeSized(t *testing.T) {
	cfg := tcpConfig(Layout)
	cfg.Procs, cfg.Workers, cfg.ExpandGhost = [3]int{2, 1, 1}, 1, false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxProcs != 1 {
		t.Errorf("tcp workers ran at GOMAXPROCS %d, want 1", res.MaxProcs)
	}
	cfg.Transport = ""
	if res, err = Run(cfg); err != nil {
		t.Fatal(err)
	}
	if procs := runtime.GOMAXPROCS(0); res.MaxProcs != procs {
		t.Errorf("goroutine ranks ran at GOMAXPROCS %d, want the process's %d", res.MaxProcs, procs)
	}
}
