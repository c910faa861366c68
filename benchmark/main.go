// Command benchmark is the repository's wall-clock benchmark: six workloads
// over (implementation × transport), end-to-end metrics measured through
// harness.Run in fresh processes, per-layer probes that time each module's
// public functions from outside, and a traced replica of the step loop that
// attributes a step's time to layers. See README.md.
//
//	bash benchmark/run.sh --workload halo32-layout-tcp --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh              # the whole suite, every metric by name
//	bash benchmark/run.sh -aa          # the suite's end-to-end part twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	hostRoles()
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "measure this one workload and print one JSON result line (with -seconds)")
		seed         = fs.Int64("seed", 1, "seed: picks the correctness pass's step count and the suite's workload order")
		seconds      = fs.Float64("seconds", 15, "how long one workload's repetitions are measured")
		traceOn      = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		aa           = fs.Bool("aa", false, "self-check: measure every workload end to end twice and compare against the bounds")
		probesOnly   = fs.Bool("probes", false, "run only the standalone layer probes")
		outDir       = fs.String("out", defaultOutDir(), "directory for result.json and trace-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Worker logs, spec files and spill directories of every child go to one
	// temporary directory, removed on exit.
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	os.Setenv("TMPDIR", tmp)

	b := bench{seed: *seed, seconds: *seconds, outDir: *outDir, tmp: tmp}
	switch {
	case *workloadName != "":
		wl, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		return b.contract(wl, *traceOn != 0)
	case *probesOnly:
		var t tally
		fullScale(workloads()[0]).warmUp(&t) // the kernels come first and would meet a cold host
		m, pt := runProbes(fullProbeDur, 32, tmp)
		t.add(pt)
		printMetrics("probes", perLayerMetrics(), m)
		return t.report()
	case *aa:
		return b.selfCheck()
	default:
		return b.suite()
	}
}

// defaultOutDir is benchmark/out whether the command runs from the
// repository root (run.sh) or from the benchmark directory (go run .).
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "run.sh")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

type bench struct {
	seed    int64
	seconds float64
	outDir  string
	tmp     string
}

// fullProbeDur is one probe sample's length when the probes run once for
// the whole suite; a single-workload run scales it to its -seconds.
const fullProbeDur = 300 * time.Millisecond

// contractResult is the last line of standard output of a -workload run.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract measures one workload and prints one JSON object as the last line
// of standard output: the end-to-end metrics, or with tracing every
// per-layer metric. Everything else goes to standard error.
func (b bench) contract(wl workload, traced bool) int {
	j := fullScale(wl)
	var m map[string]float64
	var t tally
	defs := endToEndMetrics()
	if traced {
		defs = perLayerMetrics()
		m, t = j.layers(b.outDir)
		pm, pt := runProbes(time.Duration(b.seconds*3)*time.Millisecond, 32, b.tmp)
		t.add(pt)
		for k, v := range pm {
			m[k] = v
		}
	} else {
		var sm e2eSamples
		m, sm, t = j.endToEnd(b.seed, b.seconds)
		fmt.Fprintf(os.Stderr, "benchmark: %s samples %+v\n", wl.Name, sm)
	}
	out := contractResult{Correct: t.Failed == 0, Attempted: t.Attempted, Failed: t.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			t.Notes = append(t.Notes, "no value for "+d.Name)
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, n := range t.Notes {
		fmt.Fprintln(os.Stderr, "benchmark:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func (t tally) report() int {
	for _, n := range t.Notes {
		fmt.Fprintln(os.Stderr, "FAIL:", n)
	}
	if t.Failed > 0 {
		return 1
	}
	return 0
}

// header records where a result was measured.
type header struct {
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	GOARCH         string  `json:"goarch"`
	Kernel         string  `json:"kernel"`
	Commit         string  `json:"git_commit"`
	Oversubscribed bool    `json:"oversubscribed"` // fewer cores than ranks: wall-clock numbers are not gated
}

func newHeader(b bench) header {
	h := header{Seed: b.seed, Seconds: b.seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Kernel: "unknown", Commit: "unknown"}
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(k))
	}
	if c, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(c))
	}
	h.Oversubscribed = h.NProc < 2
	return h
}

// workloadResult is one workload's part of result.json.
type workloadResult struct {
	Name      string             `json:"name"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Samples   e2eSamples         `json:"samples"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
}

// shuffled returns the workloads in the order the seed picks, so host drift
// does not always land on the same workload.
func (b bench) shuffled() []workload {
	ws := workloads()
	rand.New(rand.NewSource(b.seed)).Shuffle(len(ws), func(i, k int) { ws[i], ws[k] = ws[k], ws[i] })
	return ws
}

// endToEndPass measures every workload end to end, one at a time.
func (b bench) endToEndPass() ([]workloadResult, tally) {
	var all tally
	var out []workloadResult
	for _, wl := range b.shuffled() {
		fmt.Fprintf(os.Stderr, "benchmark: %s end to end, %.0f s\n", wl.Name, b.seconds)
		m, sm, t := fullScale(wl).endToEnd(b.seed, b.seconds)
		all.add(t)
		out = append(out, workloadResult{Name: wl.Name, EndToEnd: m, Samples: sm, Attempted: t.Attempted,
			Failed: t.Failed, FailShare: float64(t.Failed) / float64(t.Attempted)})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out, all
}

// suite is the whole benchmark: every workload end to end, its replica, and
// the probes once. It prints every metric by name with its unit and writes
// result.json.
func (b bench) suite() int {
	hdr := newHeader(b)
	results, all := b.endToEndPass()
	for i := range results {
		wl, _ := findWorkload(results[i].Name)
		fmt.Fprintf(os.Stderr, "benchmark: %s replica\n", wl.Name)
		m, t := fullScale(wl).layers(b.outDir)
		all.add(t)
		results[i].PerLayer = m
	}
	fmt.Fprintln(os.Stderr, "benchmark: probes")
	pm, pt := runProbes(fullProbeDur, 32, b.tmp)
	all.add(pt)

	fmt.Printf("# seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s %s kernel=%s commit=%s oversubscribed=%v\n",
		hdr.Seed, hdr.Seconds, hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.GOARCH, hdr.Kernel, hdr.Commit, hdr.Oversubscribed)
	for _, r := range results {
		printMetrics(r.Name, endToEndMetrics(), r.EndToEnd)
		q1, q3 := quartiles(r.Samples.StepMs)
		fmt.Printf("%-26s %-40s %14.6g %s  (n=%d, step_ms quartiles %.4g..%.4g)\n", r.Name, "fail_share", r.FailShare, "ratio",
			len(r.Samples.StepMs), q1, q3)
		printMetrics(r.Name, perLayerMetrics(), r.PerLayer)
	}
	printMetrics("probes", perLayerMetrics(), pm)

	doc := struct {
		Header    header             `json:"header"`
		Workloads []workloadResult   `json:"workloads"`
		Probes    map[string]float64 `json:"probes"`
		Notes     []string           `json:"notes,omitempty"`
	}{hdr, results, pm, all.Notes}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(b.outDir, "result.json"), append(js, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return all.report()
}

// selfCheck runs the end-to-end pass twice back to back on the same binary
// and prints, per (metric, workload), both medians, by how much the second is
// worse than the first, and the bound. It fails if a second median is worse
// by more than its bound — on a host with fewer than two cores it only
// reports.
func (b bench) selfCheck() int {
	hdr := newHeader(b)
	first, t1 := b.endToEndPass()
	second, t2 := b.endToEndPass()
	t1.add(t2)
	code := t1.report()
	fmt.Printf("# A/A seed=%d seconds=%g nproc=%d oversubscribed=%v\n", hdr.Seed, hdr.Seconds, hdr.NProc, hdr.Oversubscribed)
	fmt.Printf("%-26s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, r := range first {
		for _, d := range endToEndMetrics() {
			a, c := r.EndToEnd[d.Name], second[i].EndToEnd[d.Name]
			diff := (c - a) / a // how much worse the second pass is
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS"
				if !hdr.Oversubscribed {
					code = 1
				}
			}
			fmt.Printf("%-26s %-16s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", r.Name, d.Name, a, c, 100*diff, 100*d.Bound, verdict)
		}
	}
	return code
}

// printMetrics prints the metrics of defs that m holds, one per line, by
// name and with their unit; per-layer metrics also say which layer they
// belong to and what they should move.
func printMetrics(scope string, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-26s %-40s %14.6g %s", scope, d.Name, v, d.Unit)
		if d.Layer != "" {
			fmt.Printf("  # %s; should move: %s", d.Layer, d.Moves)
		}
		fmt.Println()
	}
}
