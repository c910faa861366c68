package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"github.com/bricklab/brick/internal/harness"
)

// tally counts the operations a run attempted and the ones that failed, and
// keeps the reasons. fail_share is Failed ÷ Attempted.
type tally struct {
	Attempted int
	Failed    int
	Notes     []string
}

func (t *tally) attempt() { t.Attempted++ }

func (t *tally) fail(format string, a ...any) {
	t.Failed++
	t.Notes = append(t.Notes, fmt.Sprintf(format, a...))
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Notes = append(t.Notes, o.Notes...)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), so spreads
// computed here and by the driver agree.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// job is a workload at the scale it is run at: its own size and step count,
// or the toy scale of the tests.
type job struct {
	wl    workload
	steps int
	dom   int // 0: the workload's own subdomain
}

func fullScale(wl workload) job { return job{wl: wl, steps: wl.Steps} }

func (j job) spec() runSpec { return runSpec{Workload: j.wl.Name, Steps: j.steps, Dom: j.dom} }

func (j job) config() harness.Config { return j.spec().mustConfig() }

// attemptRun executes the spec in a fresh child process and tallies the attempt;
// what names the run in the failure note.
func attemptRun(s runSpec, what string, t *tally) (childResult, bool) {
	t.attempt()
	res, err := runChild(s)
	if err != nil {
		t.fail("%s: %v", what, err)
	}
	return res, err == nil
}

// correctness runs the workload's problem for k steps under a reference —
// YASK on chan, or Layout on chan when the workload is itself YASK — under
// its own impl on chan when it runs off chan, and under its own (impl,
// transport). All checksums must be Float64bits-identical. No absolute
// checksum is committed: FMA fusion differs across GOARCH.
func (j job) correctness(k int, t *tally) {
	own := j.spec()
	own.Steps = k
	ref := own
	ref.Impl, ref.Transport = "yask", "chan"
	if j.wl.Cfg.Impl == harness.YASK {
		ref.Impl = "layout"
	}
	specs := []runSpec{ref}
	if j.wl.Cfg.Transport != "chan" {
		onChan := own
		onChan.Transport = "chan"
		specs = append(specs, onChan)
	}
	specs = append(specs, own)
	var want uint64
	for i, s := range specs {
		res, ok := attemptRun(s, "correctness", t)
		switch {
		case !ok:
		case i == 0:
			want = res.ChecksumBits
		case res.ChecksumBits != want:
			t.fail("correctness: %+v gives checksum %#x, the reference %+v gives %#x", s, res.ChecksumBits, ref, want)
		}
	}
}

func (s runSpec) mustConfig() harness.Config {
	c, err := s.config()
	if err != nil {
		panic(err) // specs are built from the workload table
	}
	return c
}

// setups measures setup_s n times, each in a fresh process because a run
// pays for a cold set-up: harness.Run with Steps=1 builds the world, spawns
// workers or meets over TCP, decomposes, maps views, compiles the plan, takes
// the first step, reduces the checksum and tears down.
func (j job) setups(n int, t *tally) []float64 {
	s := j.spec()
	s.Steps = 1
	var out []float64
	for i := 0; i < n; i++ {
		if res, ok := attemptRun(s, "set-up", t); ok {
			out = append(out, res.RunS)
		}
	}
	return out
}

// e2eSamples holds one workload's end-to-end samples.
type e2eSamples struct {
	SetupS []float64 `json:"setup_s"`
	StepMs []float64 `json:"step_ms"`
	RSSMB  []float64 `json:"peak_rss_mb"`
}

// setupSamples is how many cold set-ups one end-to-end run measures.
const setupSamples = 5

// warmUp runs one untimed repetition. After a few idle seconds the reference
// sandbox runs its first second or two of load up to twice as slow (measured:
// 12 ms per step falling to 6.5 ms on calc64-layout-chan), which would land
// on whatever is measured first — the set-up samples.
func (j job) warmUp(t *tally) { attemptRun(j.spec(), "warm-up", t) }

// endToEnd measures one workload with tracing, metrics and flight recorder
// off: a warm-up, the correctness pass, setupSamples cold set-ups, then
// repetitions of the S-step run, each in a fresh process, for the given
// number of seconds.
// The seed picks the correctness pass's step count; the problem itself is
// fixed by the workload.
func (j job) endToEnd(seed int64, seconds float64) (map[string]float64, e2eSamples, tally) {
	var t tally
	var sm e2eSamples
	rng := rand.New(rand.NewSource(seed))
	j.warmUp(&t)
	j.correctness(min(4+rng.Intn(13), j.steps), &t)
	sm.SetupS = j.setups(setupSamples, &t)
	setup := median(sm.SetupS)

	var want uint64
	var longest time.Duration
	begin := time.Now()
	for len(sm.StepMs) == 0 || time.Since(begin)+longest/2 < time.Duration(seconds*float64(time.Second)) {
		t0 := time.Now()
		res, ok := attemptRun(j.spec(), "repetition", &t)
		longest = max(longest, time.Since(t0))
		switch {
		case !ok:
		case res.Recoveries != 0:
			t.fail("repetition: %d recoveries on a fault-free run", res.Recoveries)
		case len(sm.StepMs) > 0 && res.ChecksumBits != want:
			t.fail("repetition: checksum %#x differs from the first repetition's %#x", res.ChecksumBits, want)
		default:
			want = res.ChecksumBits
			sm.StepMs = append(sm.StepMs, 1e3*(res.RunS-setup)/float64(max(j.steps-1, 1)))
			sm.RSSMB = append(sm.RSSMB, res.PeakRSSMB)
		}
		if t.Failed > 2 {
			break
		}
	}
	step := median(sm.StepMs)
	m := map[string]float64{
		"step_ms":        step,
		"gstencils_wall": globalPoints(j.config()) / (step * 1e-3) / 1e9,
		"setup_s":        setup,
		"peak_rss_mb":    median(sm.RSSMB),
	}
	return m, sm, t
}

// wantMsgs is the exact message count of one exchange at the workloads' own
// sizes, which must repeat (a 16³ Layout subdomain has empty regions and
// sends 35).
var wantMsgs = map[harness.Impl]float64{harness.Layout: 42, harness.MemMap: 26, harness.YASK: 26}

// layers measures one workload's (A) harness phase split from untraced runs
// and (B) the replica in the workload's own process topology, untraced and
// traced, writing the traced spans to traceDir/trace-<workload>.json.
func (j job) layers(traceDir string) (map[string]float64, tally) {
	var t tally
	m := map[string]float64{}
	cfg := j.config()
	steps := float64(j.steps)

	// The replica runs between two untraced harness runs, whose mean gives
	// (A) step_ms and its split: on a host that drifts by several percent
	// within seconds, bracketing keeps replica.step_ratio about the replica.
	j.warmUp(&t)
	setup := median(j.setups(1, &t))
	before, ok := attemptRun(j.spec(), "harness run", &t)
	if !ok {
		return m, t
	}
	replica := func(traced bool) (childResult, bool) {
		s := j.spec()
		s.Replica, s.Traced = true, traced
		res, ok := attemptRun(s, "replica", &t)
		if ok && res.ChecksumBits != before.ChecksumBits {
			t.fail("replica (traced=%v): checksum %#x differs from harness.Run's %#x: it does not do the same work",
				traced, res.ChecksumBits, before.ChecksumBits)
			ok = false
		}
		return res, ok
	}
	plain, ok1 := replica(false)
	traced, ok2 := replica(true)
	after, ok3 := attemptRun(j.spec(), "harness run", &t)
	if !ok1 || !ok2 || !ok3 {
		return m, t
	}
	avgMs := func(a, b float64) float64 { return 1e3 * (a + b) / 2 }
	stepMs := (avgMs(before.RunS, after.RunS) - 1e3*setup) / max(steps-1, 1)
	m["harness.calc_ms"] = avgMs(before.CalcS, after.CalcS)
	m["harness.pack_ms"] = avgMs(before.PackS, after.PackS)
	m["harness.call_ms"] = avgMs(before.CallS, after.CallS)
	m["harness.wait_ms"] = avgMs(before.WaitS, after.WaitS)
	m["harness.sync_ms"] = stepMs - m["harness.calc_ms"] - m["harness.pack_ms"] - m["harness.call_ms"] - m["harness.wait_ms"]

	loopS := func(r childResult) float64 {
		var s float64
		for _, rk := range r.Ranks {
			s = max(s, rk.LoopS)
		}
		return s
	}
	var self [numSpanNames]float64
	var packS float64
	traces := make([]*rankTrace, len(traced.Ranks))
	for i, rk := range traced.Ranks {
		for n, s := range rk.Trace.selfSeconds() {
			self[n] += s
		}
		packS += rk.PackS
		traces[i] = rk.Trace
	}
	perStepMs := 1e3 / (steps * float64(len(traced.Ranks)))
	m["stencil.apply_ms"] = self[spanApply] * perStepMs
	m["exch.start_ms"] = self[spanStart] * perStepMs
	m["exch.complete_ms"] = self[spanComplete] * perStepMs
	m["mpi.barrier_ms"] = self[spanBarrier] * perStepMs
	m["replica.other_ms"] = self[spanStep] * perStepMs
	m["exch.pack_ms"] = packS * perStepMs
	m["replica.step_ratio"] = 1e3 * loopS(plain) / steps / stepMs
	m["trace.overhead_pct"] = 100 * (loopS(traced) - loopS(plain)) / loopS(plain)

	r0 := plain.Ranks[0]
	elems := r0.Elems / steps
	m["core.msgs_per_exchange"] = float64(r0.Sends) / float64(max(r0.Exchanges, 1))
	m["core.data_bytes_per_exchange"] = float64(r0.DataBytes)
	m["core.wire_bytes_per_exchange"] = float64(r0.WireBytes)
	m["core.pad_ratio"] = float64(r0.WireBytes) / float64(r0.DataBytes)
	m["mpi.sent_msgs_per_step"] = float64(r0.SentMsgs) / steps
	m["mpi.sent_bytes_per_step"] = float64(r0.SentBytes) / steps
	m["stencil.elems_per_step"] = elems
	m["stencil.redundant_share"] = 1 - float64(cfg.Dom[0]*cfg.Dom[1]*cfg.Dom[2])/elems
	m["stencil.flops_per_elem"] = float64(cfg.Stencil.Flops())
	m["stencil.bytes_per_elem"] = float64(r0.ArrayBytes) / elems
	if got, want := m["core.msgs_per_exchange"], wantMsgs[cfg.Impl]; j.dom == 0 && got != want {
		t.fail("core.msgs_per_exchange is %v, want exactly %v for %s", got, want, cfg.Impl)
	}
	if err := writeChromeTrace(filepath.Join(traceDir, "trace-"+j.wl.Name+".json"), traces); err != nil {
		t.fail("writing trace: %v", err)
	}
	return m, t
}

// runProbes runs the standalone probes (C) and checks the exact counts.
func runProbes(dur time.Duration, dim int, tmp string) (map[string]float64, tally) {
	var t tally
	t.attempt()
	p := probes{dur: dur, dim: dim, tmp: tmp}
	m, err := p.runAll()
	if err != nil {
		t.fail("probes: %v", err)
		return m, t
	}
	if got := m["layout.messages3d"]; got != 42 {
		t.fail("layout.messages3d is %v, want exactly 42", got)
	}
	if got := m["core.hotpath.allocs_per_step"]; got != 0 {
		t.fail("core.hotpath.allocs_per_step is %v, want exactly 0", got)
	}
	return m, t
}
