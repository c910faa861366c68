package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"syscall"
	"time"

	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi/proc"
)

// Every measured run happens in a fresh child process of the driver — this
// binary re-entered with envChild set — so heap state and peak RSS do not
// leak between runs and the driver sleeps while a run is in flight.
const envChild = "BRICKBENCH_CHILD"

// runSpec describes one child run: a workload's problem, optionally at a
// different size or under another implementation or transport (the
// correctness pass and the toy-scale tests), through harness.Run or the
// replica. It doubles as the rank-worker spec of a supervised replica.
type runSpec struct {
	// BenchReplica marks a rank-worker spec as the benchmark's own; specs
	// without it belong to harness.WorkerMain.
	BenchReplica bool   `json:"bench_replica,omitempty"`
	Workload     string `json:"workload"`
	Steps        int    `json:"steps"`
	Impl         string `json:"impl,omitempty"`      // override the implementation: "yask" or "layout"
	Transport    string `json:"transport,omitempty"` // override the workload's transport
	Dom          int    `json:"dom,omitempty"`       // override the cubic subdomain size
	Replica      bool   `json:"replica,omitempty"`   // run the replica, not harness.Run
	Traced       bool   `json:"traced,omitempty"`    // record spans (replica only)
	Metrics      bool   `json:"metrics,omitempty"`   // set Config.Metrics (overhead probe)
	Flight       bool   `json:"flight,omitempty"`    // set Config.Flight (overhead probe)
	Noop         bool   `json:"noop,omitempty"`      // rank worker: attach, barrier, report (spawn probe)
}

func (s runSpec) config() (harness.Config, error) {
	wl, err := findWorkload(s.Workload)
	if err != nil {
		return harness.Config{}, err
	}
	cfg := wl.Cfg
	cfg.Steps = s.Steps
	switch s.Impl {
	case "":
	case "yask":
		cfg.Impl = harness.YASK
	case "layout":
		cfg.Impl = harness.Layout
	default:
		return harness.Config{}, fmt.Errorf("unknown impl override %q", s.Impl)
	}
	if s.Transport != "" {
		cfg.Transport = s.Transport
	}
	if s.Dom > 0 {
		cfg.Dom = [3]int{s.Dom, s.Dom, s.Dom}
	}
	return cfg, nil
}

// childResult is the one JSON line a child prints.
type childResult struct {
	Err          string  `json:"err,omitempty"`
	RunS         float64 `json:"run_s"` // wall clock around harness.Run or the replica
	ChecksumBits uint64  `json:"checksum_bits"`
	Recoveries   int     `json:"recoveries"`
	// Mean seconds per step over ranks and steps, from harness.Result.
	CalcS float64 `json:"calc_s"`
	PackS float64 `json:"pack_s"`
	CallS float64 `json:"call_s"`
	WaitS float64 `json:"wait_s"`
	// Replica only.
	Ranks []rankResult `json:"ranks,omitempty"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// hostRoles makes this binary its own rank worker and its own measurement
// child. main and TestMain call it first: in a normal process it returns at
// once. A rank worker whose spec carries the replica marker runs the
// replica's rank; any other rank worker is harness.WorkerMain's.
func hostRoles() {
	if proc.IsWorker() {
		var spec runSpec
		if b, err := os.ReadFile(os.Getenv(proc.EnvSpec)); err == nil &&
			json.Unmarshal(b, &spec) == nil && spec.BenchReplica {
			replicaWorkerMain(spec)
		}
		harness.WorkerMain()
	}
	if js := os.Getenv(envChild); js != "" {
		os.Unsetenv(envChild) // rank workers this child spawns are not children
		var res childResult
		var spec runSpec
		if err := json.Unmarshal([]byte(js), &spec); err != nil {
			res.Err = err.Error()
		} else if res, err = runSpecHere(spec); err != nil {
			res.Err = err.Error()
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
}

// runSpecHere executes the spec in this process.
func runSpecHere(spec runSpec) (childResult, error) {
	cfg, err := spec.config()
	if err != nil {
		return childResult{}, err
	}
	var res childResult
	t0 := time.Now()
	if spec.Replica {
		ranks, err := runReplica(spec, cfg)
		res.RunS = time.Since(t0).Seconds()
		if err != nil {
			return res, err
		}
		res.Ranks, res.ChecksumBits = ranks, ranks[0].ChecksumBits
		return res, nil
	}
	if spec.Metrics {
		cfg.Metrics = metrics.NewRegistry()
	}
	cfg.Flight = spec.Flight
	r, err := harness.Run(cfg)
	res.RunS = time.Since(t0).Seconds()
	if err != nil {
		return res, err
	}
	res.ChecksumBits, res.Recoveries = math.Float64bits(r.Checksum), r.Recoveries
	res.CalcS, res.PackS, res.CallS, res.WaitS = r.Calc.Mean(), r.Pack.Mean(), r.Call.Mean(), r.Wait.Mean()
	return res, nil
}

// runChild executes the spec in a fresh child process and waits for it. The
// peak RSS is the largest resident set of any single process of the run: the
// kernel folds the rank workers the child reaped into the child's rusage.
func runChild(spec runSpec) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), envChild+"="+string(js))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", js, err)
	}
	var res childResult
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return childResult{}, fmt.Errorf("child %s: bad result %q: %w", js, out.String(), err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if res.Err != "" {
		return res, fmt.Errorf("child %s: %s", js, res.Err)
	}
	return res, nil
}
