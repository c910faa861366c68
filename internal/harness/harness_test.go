package harness

import (
	"math"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

func baseConfig(im Impl) Config {
	return Config{
		Impl:    im,
		Procs:   [3]int{2, 2, 2},
		Dom:     [3]int{16, 16, 16},
		Ghost:   4,
		Shape:   core.Shape{4, 4, 4},
		Stencil: stencil.Star7(),
		Steps:   4,
		Warmup:  1,
		Machine: netmodel.ThetaKNL(),
	}
}

var allImpls = []Impl{YASK, MPITypes, Basic, Layout, MemMap, Shift,
	GPULayoutCA, GPULayoutUM, GPUMemMapUM, GPUTypesUM, GPUStaged}

// schedCell is one cell of the parity suites' implementation × exchange
// period grid: period 1 (ExpandGhost off), where every implementation but
// Shift overlaps the exchange with computation, or period Ghost/Radius
// (ghost-cell expansion), where each exchange completes before the step
// computes.
type schedCell struct {
	im     Impl
	expand bool
}

// String labels a cell as Fig 8 does: "<impl>" expands ghosts, and
// "<impl>-OL" exchanges every step.
func (c schedCell) String() string {
	if c.expand {
		return c.im.String()
	}
	return c.im.String() + "-OL"
}

// apply sets the cell's implementation and period on cfg.
func (c schedCell) apply(cfg Config) Config {
	cfg.Impl, cfg.ExpandGhost = c.im, c.expand
	return cfg
}

// schedCells is every CPU implementation at both periods.
func schedCells() []schedCell {
	var out []schedCell
	for _, im := range SoakImpls {
		out = append(out, schedCell{im, false}, schedCell{im, true})
	}
	return out
}

func TestImplStrings(t *testing.T) {
	want := map[Impl]string{
		YASK: "YASK", MPITypes: "MPI_Types",
		Basic: "Basic", Layout: "Layout", MemMap: "MemMap", Shift: "Shift",
		GPULayoutCA: "LayoutCA", GPULayoutUM: "LayoutUM",
		GPUMemMapUM: "MemMapUM", GPUTypesUM: "MPI_TypesUM", GPUStaged: "Staged",
		Impl(99): "Impl(99)",
	}
	for im, s := range want {
		if im.String() != s {
			t.Errorf("%d -> %q, want %q", int(im), im.String(), s)
		}
	}
}

func TestValidate(t *testing.T) {
	cfg := baseConfig(Layout)
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	bad := cfg
	bad.Steps = 0
	if bad.Validate() == nil {
		t.Error("zero steps accepted")
	}
	bad = cfg
	bad.Procs = [3]int{0, 1, 1}
	if bad.Validate() == nil {
		t.Error("zero procs accepted")
	}
	bad = cfg
	bad.Ghost = 3
	bad.ExpandGhost = true
	bad.Stencil = stencil.Cube125() // radius 2 does not divide 3
	if bad.Validate() == nil {
		t.Error("non-divisible ghost accepted with expansion")
	}
}

func TestAllImplementationsAgree(t *testing.T) {
	var ref float64
	for i, im := range allImpls {
		res, err := Run(baseConfig(im))
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		if i == 0 {
			ref = res.Checksum
			if math.Abs(ref) < 1e-9 {
				t.Fatalf("degenerate checksum %v", ref)
			}
			continue
		}
		if math.Abs(res.Checksum-ref) > 1e-6*math.Abs(ref) {
			t.Errorf("%v checksum %v differs from reference %v", im, res.Checksum, ref)
		}
	}
}

func TestGhostExpansionAgrees(t *testing.T) {
	// Ghost-cell expansion must not change the final field.
	for _, im := range []Impl{YASK, MPITypes, Layout, MemMap, Shift, GPULayoutCA} {
		plain := baseConfig(im)
		expanded := plain
		expanded.ExpandGhost = true
		a, err := Run(plain)
		if err != nil {
			t.Fatalf("%v plain: %v", im, err)
		}
		b, err := Run(expanded)
		if err != nil {
			t.Fatalf("%v expanded: %v", im, err)
		}
		if math.Abs(a.Checksum-b.Checksum) > 1e-6*math.Abs(a.Checksum) {
			t.Errorf("%v: expansion changed checksum %v -> %v", im, a.Checksum, b.Checksum)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	// Intra-rank parallel compute must not change results bit-for-bit:
	// every element is written by exactly one worker tile, and the per-
	// element accumulation order is unchanged by tiling.
	for _, c := range schedCells() {
		serial := c.apply(baseConfig(c.im))
		serial.Workers = 1
		parallel := serial
		parallel.Workers = 4
		a, err := Run(serial)
		if err != nil {
			t.Fatalf("%v workers=1: %v", c, err)
		}
		b, err := Run(parallel)
		if err != nil {
			t.Fatalf("%v workers=4: %v", c, err)
		}
		if math.Float64bits(a.Checksum) != math.Float64bits(b.Checksum) {
			t.Errorf("%v: workers changed checksum %v -> %v", c, a.Checksum, b.Checksum)
		}
	}
}

func TestCube125Agrees(t *testing.T) {
	var ref float64
	for i, im := range []Impl{YASK, Layout, MemMap} {
		cfg := baseConfig(im)
		cfg.Stencil = stencil.Cube125()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		if i == 0 {
			ref = res.Checksum
		} else if math.Abs(res.Checksum-ref) > 1e-6*math.Abs(ref) {
			t.Errorf("%v checksum %v != %v", im, res.Checksum, ref)
		}
	}
}

func TestMessageCountsPerImpl(t *testing.T) {
	// dom 12³ (s=3, g=1): all regions non-empty.
	want := map[Impl]int{
		YASK: 26, MPITypes: 26, Basic: 98, Layout: 42, MemMap: 26, Shift: 6,
		GPULayoutCA: 42, GPUMemMapUM: 26, GPUTypesUM: 26,
	}
	for im, msgs := range want {
		cfg := baseConfig(im)
		cfg.Dom = [3]int{12, 12, 12}
		cfg.Steps = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		if res.MsgsPerExchange != msgs {
			t.Errorf("%v: %d messages per exchange, want %d", im, res.MsgsPerExchange, msgs)
		}
	}
}

func TestMetricsPopulated(t *testing.T) {
	res, err := Run(baseConfig(Layout))
	if err != nil {
		t.Fatal(err)
	}
	if res.Calc.N() != 8*4 { // 8 ranks × 4 timed steps
		t.Errorf("calc samples = %d", res.Calc.N())
	}
	if res.Calc.Mean() <= 0 {
		t.Error("calc time not positive")
	}
	if res.GStencils <= 0 {
		t.Error("throughput not positive")
	}
	if res.Step.N() != res.Calc.N() || res.Step.Mean() < res.Calc.Mean() {
		t.Errorf("step %d samples, mean %v; calc %d samples, mean %v", res.Step.N(), res.Step.Mean(), res.Calc.N(), res.Calc.Mean())
	}
	if res.DataBytes <= 0 || res.WireBytes < res.DataBytes {
		t.Errorf("bytes: data %d wire %d", res.DataBytes, res.WireBytes)
	}
	if res.Modeled {
		t.Error("CPU impl marked modeled")
	}
}

func TestPackFreeImplsReportZeroPack(t *testing.T) {
	// Shift is excluded: its multi-span slab windows use copy-based views
	// (gather/scatter on every exchange), and since the exchanger-internal
	// phase split those real copies are charged to Pack instead of hiding
	// inside Wait.
	for _, im := range []Impl{Basic, Layout, MemMap} {
		for _, expand := range []bool{false, true} {
			cfg := baseConfig(im)
			cfg.ExpandGhost = expand
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v expand=%v: %v", im, expand, err)
			}
			if res.Pack.Max() != 0 {
				t.Errorf("%v expand=%v: pack time %v, want 0 (pack-free)", im, expand, res.Pack.Max())
			}
		}
	}
	// Packing impls must report non-zero pack time.
	for _, im := range []Impl{YASK, MPITypes} {
		res, err := Run(baseConfig(im))
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		if res.Pack.Mean() <= 0 {
			t.Errorf("%v: pack time is zero", im)
		}
	}
}

func TestGPUResultsModeled(t *testing.T) {
	res, err := Run(baseConfig(GPUMemMapUM))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Modeled {
		t.Error("GPU result not marked modeled")
	}
	if res.Comm.Mean() <= 0 || res.Calc.Mean() <= 0 {
		t.Error("modeled times missing")
	}
}

func TestPageBytesOverride(t *testing.T) {
	// Fig 18: larger synthetic pages → more wire bytes for MemMap.
	small := baseConfig(MemMap)
	small.Machine.PageSize = 4096
	big := baseConfig(MemMap)
	big.Machine.PageSize = 16384
	a, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if b.WireBytes <= a.WireBytes {
		t.Errorf("16KiB pages wire %d not larger than 4KiB %d", b.WireBytes, a.WireBytes)
	}
	if a.Checksum != b.Checksum {
		t.Error("page size changed results")
	}
}

func TestSingleRankRun(t *testing.T) {
	cfg := baseConfig(Layout)
	cfg.Procs = [3]int{1, 1, 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GStencils <= 0 {
		t.Error("no throughput")
	}
}

// TestRankShare: a rank's compute workers are Workers when positive, else
// its share of the host's GOMAXPROCS (at least one), and the runtime of a
// rank's worker process is as wide as its workers but never wider than the
// process started.
func TestRankShare(t *testing.T) {
	for _, c := range []struct {
		workers, ranks, procs int
		want, wantProcs       int
	}{
		{workers: 3, ranks: 2, procs: 8, want: 3, wantProcs: 3},
		{workers: 1, ranks: 8, procs: 2, want: 1, wantProcs: 1},
		{workers: 0, ranks: 1, procs: 2, want: 2, wantProcs: 2},
		{workers: 0, ranks: 2, procs: 2, want: 1, wantProcs: 1},
		{workers: 0, ranks: 8, procs: 2, want: 1, wantProcs: 1},
		{workers: -1, ranks: 2, procs: 8, want: 4, wantProcs: 4},
		{workers: 4, ranks: 2, procs: 2, want: 4, wantProcs: 2},
		{workers: 0, ranks: 1, procs: 1, want: 1, wantProcs: 1},
	} {
		cfg := Config{Workers: c.workers, Procs: [3]int{c.ranks, 1, 1}}
		if got, procs := cfg.rankShare(c.procs); got != c.want || procs != c.wantProcs {
			t.Errorf("Workers %d, %d ranks, GOMAXPROCS %d: %d workers at GOMAXPROCS %d, want %d at %d",
				c.workers, c.ranks, c.procs, got, procs, c.want, c.wantProcs)
		}
	}
}
