package cli

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// Common holds the flags every experiment command shares (cmd/weak,
// cmd/soak). They are registered in one place so a cross-cutting
// flag — like -transport or -watchdog — is defined once and appears in every
// binary with the same name, default, and help text.
type Common struct {
	Stencil    string
	Machine    string
	Transport  string
	Ghost      int
	Brick      int
	Iters      int
	Workers    int
	MetricsOut string
	PprofAddr  string
	Fault      string
	FaultSeed  int64
	Watchdog   time.Duration

	Checkpoint      bool
	CheckpointEvery int
	CheckpointDir   string
	MaxRecoveries   int
	VerifyCRC       bool

	Flight      bool
	FlightDepth int
	FlightOut   string
}

// RegisterCommon installs the shared flags on the default flag set.
// ghostDefault, brickDefault, and itersDefault let the commands keep their
// historical defaults (weak: 16 iterations; soak: small fast domains).
func RegisterCommon(ghostDefault, brickDefault, itersDefault int) *Common {
	c := &Common{}
	flag.StringVar(&c.Stencil, "stencil", "7pt", "stencil: 7pt or 125pt")
	flag.StringVar(&c.Machine, "machine", "theta-knl", "machine profile for the network model")
	flag.StringVar(&c.Transport, "transport", mpi.DefaultTransport,
		"mpi transport backend — "+mpi.TransportUsage())
	flag.IntVar(&c.Ghost, "ghost", ghostDefault, "ghost width (elements)")
	flag.IntVar(&c.Brick, "brick", brickDefault, "brick dimension")
	flag.IntVar(&c.Iters, "I", itersDefault, "timed iterations (timesteps)")
	flag.IntVar(&c.Workers, "workers", 0, "compute workers per rank (0 = GOMAXPROCS ÷ ranks, at least 1)")
	flag.StringVar(&c.MetricsOut, "metrics-out", "", "write a metrics snapshot JSON (brick-metrics/v1) to this file")
	flag.StringVar(&c.PprofAddr, "pprof-addr", "", "serve /metrics, /metrics.json, /debug/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&c.Fault, "fault", "", "fault-injection spec, e.g. delay:rank=*:mean=200us or panic:rank=1:step=3 (see docs/robustness.md)")
	flag.Int64Var(&c.FaultSeed, "fault-seed", 0, "seed for the fault injector's deterministic jitter")
	flag.DurationVar(&c.Watchdog, "watchdog", 0, "abort with a stall report if no exchange progress for this long (0 disables)")
	flag.BoolVar(&c.Checkpoint, "ckpt", false, "checkpoint every -ckpt-every steps and recover from rank failures instead of failing loud")
	flag.IntVar(&c.CheckpointEvery, "ckpt-every", 2, "steps between checkpoints under -ckpt")
	flag.StringVar(&c.CheckpointDir, "ckpt-dir", "", "commit checkpoint epochs (brick-ckpt/v1 files) to this directory, keeping the newest after the run; empty uses a private temporary directory")
	flag.IntVar(&c.MaxRecoveries, "max-recoveries", 3, "recovery budget under -ckpt before the run fails with the original abort")
	flag.BoolVar(&c.VerifyCRC, "verify-crc", false, "verify payload CRCs at receive; detected corruption aborts (and recovers under -ckpt)")
	flag.BoolVar(&c.Flight, "flight", false, "record per-rank flight-recorder rings (post/deliver/wait/step/phase events); on stall or abort — and on chan after weak finishes — a brick-flight/v1 artifact is written to -flight-out (inspect with flightreport)")
	flag.IntVar(&c.FlightDepth, "flight-depth", 0, "per-rank flight ring capacity in events (0 = default 1024)")
	flag.StringVar(&c.FlightOut, "flight-out", "brick-flight.bin", "path of the brick-flight/v1 artifact a -flight run writes")
	return c
}

// Resolved carries the parsed shared flags in harness-ready form.
type Resolved struct {
	Stencil stencil.Stencil
	Machine netmodel.Machine
	// Registry is non-nil when any metrics sink was requested; pass it as
	// harness.Config.Metrics.
	Registry *metrics.Registry
}

// Resolve validates the shared flags, creates the metrics registry when a
// sink needs one, and starts the pprof server if requested. prog prefixes
// error and log messages.
func (c *Common) Resolve(prog string) (Resolved, error) {
	var r Resolved
	var err error
	if r.Stencil, err = ParseStencil(c.Stencil); err != nil {
		return r, err
	}
	if r.Machine, err = ParseMachine(c.Machine); err != nil {
		return r, err
	}
	// Reject a malformed fault spec here, before any world starts.
	if _, err = fault.Parse(c.Fault, c.FaultSeed); err != nil {
		return r, err
	}
	if c.MetricsOut != "" || c.PprofAddr != "" {
		r.Registry = metrics.NewRegistry()
	}
	if c.PprofAddr != "" {
		addr, err := r.Registry.Serve(c.PprofAddr)
		if err != nil {
			return r, fmt.Errorf("pprof server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: serving metrics and pprof on http://%s\n", prog, addr)
	}
	return r, nil
}

// Apply stamps the shared values onto a harness configuration.
func (c *Common) Apply(cfg *harness.Config, r Resolved) {
	cfg.Transport = c.Transport
	cfg.Ghost = c.Ghost
	cfg.Shape = core.Shape{c.Brick, c.Brick, c.Brick}
	cfg.Stencil = r.Stencil
	cfg.Steps = c.Iters
	cfg.Machine = r.Machine
	cfg.Workers = c.Workers
	cfg.Metrics = r.Registry
	cfg.Fault = c.Fault
	cfg.FaultSeed = c.FaultSeed
	cfg.Watchdog = c.Watchdog
	cfg.Checkpoint = c.Checkpoint
	cfg.CheckpointEvery = c.CheckpointEvery
	cfg.CheckpointDir = c.CheckpointDir
	cfg.MaxRecoveries = c.MaxRecoveries
	cfg.VerifyCRC = c.VerifyCRC
	cfg.Flight = c.Flight
	cfg.FlightDepth = c.FlightDepth
	cfg.FlightOut = c.FlightOut
}

// Finish writes the metrics snapshot if -metrics-out was given: the input
// flightreport -metrics turns into per-rank critical-path reports.
func (c *Common) Finish(prog string, reg *metrics.Registry) error {
	if c.MetricsOut == "" {
		return nil
	}
	if err := reg.WriteJSONFile(c.MetricsOut); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: metrics snapshot written to %s (inspect with flightreport -metrics)\n", prog, c.MetricsOut)
	return nil
}
