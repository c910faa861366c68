// Benchmarks regenerating the paper's evaluation, one per table and figure.
// Each benchmark runs the corresponding experiment configuration and reports
// the figure's metric via ReportMetric (ms/step, GStencil/s, messages, or
// padding %). cmd/figures prints the same data as full sweeps; these are the
// `go test -bench` entry points at reduced scale.
package brick_test

import (
	"fmt"
	"io"
	"testing"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/experiments"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// benchConfig is the shared small-scale K1-style configuration.
func benchConfig(im harness.Impl, dim int, st stencil.Stencil, mach netmodel.Machine) harness.Config {
	return harness.Config{
		Impl:        im,
		Procs:       [3]int{2, 2, 2},
		Dom:         [3]int{dim, dim, dim},
		Ghost:       8,
		Shape:       core.Shape{8, 8, 8},
		Stencil:     st,
		Steps:       8,
		Warmup:      1,
		Machine:     mach,
		ExpandGhost: true,
	}
}

// runHarness executes cfg once per benchmark iteration and reports the
// harness metrics.
func runHarness(b *testing.B, cfg harness.Config) harness.Result {
	b.Helper()
	var res harness.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Calc.Mean()*1e3, "calc_ms/step")
	b.ReportMetric(res.CommSynth.Mean()*1e3, "comm_ms/step")
	b.ReportMetric(res.Pack.Mean()*1e3, "pack_ms/step")
	b.ReportMetric(res.GStencils, "GStencil/s")
	b.ReportMetric(float64(res.MsgsPerExchange), "msgs")
	return res
}

func dims(b *testing.B) []int {
	if testing.Short() {
		return []int{16}
	}
	return []int{32, 16}
}

// BenchmarkFig01_Breakdown: Figure 1 — per-timestep breakdown, packing
// baseline vs pack-free Layout.
func BenchmarkFig01_Breakdown(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range []harness.Impl{harness.YASK, harness.Layout} {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.ThetaKNL()))
			})
		}
	}
}

// BenchmarkFig04_LayoutVsBasic: Figure 4 — message-count effect of layout
// optimization (42 vs 98 messages vs packed 26).
func BenchmarkFig04_LayoutVsBasic(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range []harness.Impl{harness.YASK, harness.Basic, harness.Layout} {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.ThetaKNL()))
			})
		}
	}
}

// BenchmarkTable1_MessageCounts: Table 1 — the layout optimizer recovering
// the Eq. 1 optimum per dimension.
func BenchmarkTable1_MessageCounts(b *testing.B) {
	for d := 1; d <= 3; d++ {
		b.Run(fmt.Sprintf("dim%d", d), func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				msgs = layout.MessageCount(layout.Optimize(d))
			}
			if msgs != layout.OptimalMessages(d) {
				b.Fatalf("optimizer found %d, Eq.1 says %d", msgs, layout.OptimalMessages(d))
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkFig08_K1Scaling: Figure 8 — 7-point throughput for the five
// implementations.
func BenchmarkFig08_K1Scaling(b *testing.B) {
	// YASK-OL is YASK exchanging every step (overlapped); the rest expand.
	impls := []struct {
		im     harness.Impl
		expand bool
		label  string
	}{
		{harness.MemMap, true, "MemMap"}, {harness.Layout, true, "Layout"},
		{harness.YASK, true, "YASK"}, {harness.YASK, false, "YASK-OL"},
		{harness.MPITypes, true, "MPI_Types"},
	}
	for _, dim := range dims(b) {
		for _, k := range impls {
			b.Run(fmt.Sprintf("dim%d/%s", dim, k.label), func(b *testing.B) {
				cfg := benchConfig(k.im, dim, stencil.Star7(), netmodel.ThetaKNL())
				cfg.ExpandGhost = k.expand
				runHarness(b, cfg)
			})
		}
	}
}

// BenchmarkFig09_K1CommTime: Figure 9 — communication time with the modeled
// Network floor.
func BenchmarkFig09_K1CommTime(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range []harness.Impl{harness.MPITypes, harness.YASK, harness.Layout, harness.MemMap} {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				res := runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.ThetaKNL()))
				b.ReportMetric(res.NetworkFloor*1e3, "network_floor_ms")
			})
		}
	}
}

// BenchmarkFig10_K1Compute: Figure 10 — compute time across layouts
// (No-Layout = lexicographic block order).
func BenchmarkFig10_K1Compute(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range []harness.Impl{harness.YASK, harness.Layout, harness.MemMap, harness.Basic} {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.ThetaKNL()))
			})
		}
	}
}

// BenchmarkFig11_K2Strong: Figure 11 — strong scaling of a fixed global
// domain (64³ here), 7pt and 125pt.
func BenchmarkFig11_K2Strong(b *testing.B) {
	sts := []stencil.Stencil{stencil.Star7()}
	if !testing.Short() {
		sts = append(sts, stencil.Cube125())
	}
	for _, st := range sts {
		for _, procs := range []int{2, 4} {
			dim := 64 / procs
			for _, im := range []harness.Impl{harness.MemMap, harness.YASK} {
				b.Run(fmt.Sprintf("%s/ranks%d/%s", st.Name, procs*procs*procs, im), func(b *testing.B) {
					cfg := benchConfig(im, dim, st, netmodel.ThetaKNL())
					cfg.Procs = [3]int{procs, procs, procs}
					runHarness(b, cfg)
				})
			}
		}
	}
}

// BenchmarkFig12_K2Decomp: Figure 12 — comm/comp decomposition during
// strong scaling.
func BenchmarkFig12_K2Decomp(b *testing.B) {
	for _, procs := range []int{2, 4} {
		dim := 64 / procs
		for _, im := range []harness.Impl{harness.YASK, harness.MemMap} {
			b.Run(fmt.Sprintf("ranks%d/%s", procs*procs*procs, im), func(b *testing.B) {
				cfg := benchConfig(im, dim, stencil.Star7(), netmodel.ThetaKNL())
				cfg.Procs = [3]int{procs, procs, procs}
				runHarness(b, cfg)
			})
		}
	}
}

var gpuImpls = []harness.Impl{harness.GPULayoutCA, harness.GPULayoutUM, harness.GPUMemMapUM, harness.GPUTypesUM}

// BenchmarkFig13_V1Scaling: Figure 13 — GPU 7-point throughput (modeled).
func BenchmarkFig13_V1Scaling(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range gpuImpls {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.SummitV100()))
			})
		}
	}
}

// BenchmarkFig14_V1CommTime: Figure 14 — modeled GPU communication time.
func BenchmarkFig14_V1CommTime(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range gpuImpls {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				res := runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.SummitV100()))
				b.ReportMetric(res.NetworkFloor*1e3, "networkCA_floor_ms")
			})
		}
	}
}

// BenchmarkFig15_V1Compute: Figure 15 — modeled GPU compute time
// (page-alignment effect on unified memory).
func BenchmarkFig15_V1Compute(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range gpuImpls {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.SummitV100()))
			})
		}
	}
}

// BenchmarkTable2_Padding: Table 2 — padding overhead and achieved modeled
// bandwidth for the GPU strategies.
func BenchmarkTable2_Padding(b *testing.B) {
	for _, dim := range dims(b) {
		for _, im := range []harness.Impl{harness.GPULayoutCA, harness.GPUMemMapUM} {
			b.Run(fmt.Sprintf("dim%d/%s", dim, im), func(b *testing.B) {
				res := runHarness(b, benchConfig(im, dim, stencil.Star7(), netmodel.SummitV100()))
				pad := 0.0
				if res.DataBytes > 0 {
					pad = 100 * float64(res.WireBytes-res.DataBytes) / float64(res.DataBytes)
				}
				b.ReportMetric(pad, "padding_%")
			})
		}
	}
}

// BenchmarkFig16_V2Strong: Figure 16 — GPU strong scaling (modeled).
func BenchmarkFig16_V2Strong(b *testing.B) {
	for _, procs := range []int{2, 4} {
		dim := 64 / procs
		for _, im := range []harness.Impl{harness.GPULayoutCA, harness.GPUMemMapUM, harness.GPUTypesUM} {
			b.Run(fmt.Sprintf("ranks%d/%s", procs*procs*procs, im), func(b *testing.B) {
				cfg := benchConfig(im, dim, stencil.Star7(), netmodel.SummitV100())
				cfg.Procs = [3]int{procs, procs, procs}
				runHarness(b, cfg)
			})
		}
	}
}

// BenchmarkFig17_V2Decomp: Figure 17 — GPU strong-scaling comm/comp
// decomposition (modeled).
func BenchmarkFig17_V2Decomp(b *testing.B) {
	for _, procs := range []int{2, 4} {
		dim := 64 / procs
		for _, im := range []harness.Impl{harness.GPUTypesUM, harness.GPULayoutCA} {
			b.Run(fmt.Sprintf("ranks%d/%s", procs*procs*procs, im), func(b *testing.B) {
				cfg := benchConfig(im, dim, stencil.Star7(), netmodel.SummitV100())
				cfg.Procs = [3]int{procs, procs, procs}
				runHarness(b, cfg)
			})
		}
	}
}

// BenchmarkFig18_PageSize: Figure 18 — page-size effect on MemMap.
func BenchmarkFig18_PageSize(b *testing.B) {
	for _, dim := range dims(b) {
		for _, page := range []int{4096, 16384, 65536} {
			b.Run(fmt.Sprintf("dim%d/page%dKiB", dim, page/1024), func(b *testing.B) {
				cfg := benchConfig(harness.MemMap, dim, stencil.Star7(), netmodel.ThetaKNL())
				cfg.PageBytes = page
				res := runHarness(b, cfg)
				b.ReportMetric(float64(res.WireBytes), "wire_bytes")
			})
		}
	}
}

// BenchmarkTable3_CostSummary renders the qualitative Table 3 (cheap; exists
// so every table has a bench entry point).
func BenchmarkTable3_CostSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(experiments.Options{Quick: true}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblation_ExchangeMethods compares all pack-free exchange methods
// plus the baselines at one configuration: message count vs copies vs
// phases (Shift trades 6 messages for 3 serialized phases). Layout-OL is
// Layout exchanging every step, which overlaps the exchange with the
// interior sweep.
func BenchmarkAblation_ExchangeMethods(b *testing.B) {
	for _, im := range []harness.Impl{harness.YASK, harness.MPITypes, harness.Basic,
		harness.Layout, harness.MemMap, harness.Shift} {
		b.Run(im.String(), func(b *testing.B) {
			runHarness(b, benchConfig(im, 32, stencil.Star7(), netmodel.ThetaKNL()))
		})
	}
	b.Run("Layout-OL", func(b *testing.B) {
		cfg := benchConfig(harness.Layout, 32, stencil.Star7(), netmodel.ThetaKNL())
		cfg.ExpandGhost = false
		runHarness(b, cfg)
	})
}

// BenchmarkAblation_LayoutOrder isolates the layout choice: identical brick
// storage, identical stencil, different surface orders (optimal vs
// lexicographic vs per-region Basic).
func BenchmarkAblation_LayoutOrder(b *testing.B) {
	for _, tc := range []struct {
		name  string
		order []layout.Set
		basic bool
	}{
		{"Surface3D-42msgs", layout.Surface3D(), false},
		{"Lexicographic-76msgs", layout.Lexicographic(3), false},
		{"PerRegion-98msgs", layout.Lexicographic(3), true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var opts []core.Option
			if tc.basic {
				opts = append(opts, core.WithPerRegionMessages())
			}
			dec, err := core.NewBrickDecomp(core.Shape{8, 8, 8}, [3]int{32, 32, 32}, 8, 2, tc.order, opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(dec.SendMessages())), "msgs")
			bs := dec.Allocate()
			_ = bs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d2, err := core.NewBrickDecomp(core.Shape{8, 8, 8}, [3]int{32, 32, 32}, 8, 2, tc.order, opts...)
				if err != nil {
					b.Fatal(err)
				}
				_ = d2
			}
		})
	}
}

// BenchmarkAblation_GhostExpansion measures the redundant-computation vs
// communication-frequency trade of ghost-cell expansion.
func BenchmarkAblation_GhostExpansion(b *testing.B) {
	for _, expand := range []bool{false, true} {
		name := "exchange-every-step"
		if expand {
			name = "exchange-every-8-steps"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(harness.Layout, 32, stencil.Star7(), netmodel.ThetaKNL())
			cfg.ExpandGhost = expand
			runHarness(b, cfg)
		})
	}
}

// BenchmarkAblation_WorkerScaling runs the full K1-style harness on a single
// rank with the per-rank worker count pinned, isolating the end-to-end effect
// of tiled parallel compute plus comm/compute overlap (ExpandGhost off keeps
// the exchange period at 1, so the overlapped interior/surface path runs).
// On a multi-core machine GStencil/s should scale with the worker count; on
// one core workers=1 and workers=4 coincide.
func BenchmarkAblation_WorkerScaling(b *testing.B) {
	for _, im := range []harness.Impl{harness.Layout, harness.MemMap} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers%d", im, workers), func(b *testing.B) {
				cfg := benchConfig(im, 64, stencil.Star7(), netmodel.ThetaKNL())
				cfg.Procs = [3]int{1, 1, 1}
				cfg.ExpandGhost = false
				cfg.Workers = workers
				runHarness(b, cfg)
			})
		}
	}
}

// BenchmarkAblation_MetricsOverhead measures the cost of the observability
// layer on the WorkerScaling configuration in its three states: absent
// (Config.Metrics nil — the instrumented paths reduce to pointer checks),
// disabled-registry attached, and fully enabled. absent vs nil must stay
// within noise (<2% on GStencil/s); "enabled" shows the recording cost.
func BenchmarkAblation_MetricsOverhead(b *testing.B) {
	base := func() harness.Config {
		cfg := benchConfig(harness.Layout, 64, stencil.Star7(), netmodel.ThetaKNL())
		cfg.Procs = [3]int{1, 1, 1}
		cfg.ExpandGhost = false
		cfg.Workers = 1
		return cfg
	}
	b.Run("absent", func(b *testing.B) {
		runHarness(b, base())
	})
	b.Run("enabled", func(b *testing.B) {
		cfg := base()
		cfg.Metrics = metrics.NewRegistry()
		runHarness(b, cfg)
	})
}

// BenchmarkAblation_FlightOverhead measures the flight recorder's cost on
// the overlapped Layout configuration — the event-densest path (send
// posts, deliveries, waits and phase marks every step). disabled
// (Config.Flight off — every hook is one nil check) vs enabled must stay
// within noise on GStencil/s; enabled additionally reports the event volume.
func BenchmarkAblation_FlightOverhead(b *testing.B) {
	base := func() harness.Config {
		cfg := benchConfig(harness.Layout, 64, stencil.Star7(), netmodel.ThetaKNL())
		cfg.ExpandGhost = false
		return cfg
	}
	b.Run("disabled", func(b *testing.B) {
		runHarness(b, base())
	})
	b.Run("enabled", func(b *testing.B) {
		cfg := base()
		cfg.Flight = true
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		runHarness(b, cfg)
		var events int64
		for _, s := range reg.Snapshot().Counters {
			if s.Name == metrics.FlightEventsTotal {
				events += s.Value
			}
		}
		if events > 0 {
			b.ReportMetric(float64(events)/float64(b.N), "flight_events")
		}
	})
}

// BenchmarkAblation_CheckpointOverhead measures the recovery runtime's
// cost on a fault-free run in its three states: checkpointing absent
// (Config.Checkpoint false — the step loop pays one nil check), every 4
// steps, and every 2 steps. The per-epoch cost (quiesce barriers, storage
// copy, and the disk spill: rank files, manifest, pruning of the previous
// epoch) is reported as ckpt_ms/epoch alongside the committed epoch count
// and snapshot volume.
func BenchmarkAblation_CheckpointOverhead(b *testing.B) {
	base := func() harness.Config {
		cfg := benchConfig(harness.Layout, 32, stencil.Star7(), netmodel.ThetaKNL())
		cfg.ExpandGhost = false
		return cfg
	}
	b.Run("off", func(b *testing.B) {
		runHarness(b, base())
	})
	for _, every := range []int{4, 2} {
		b.Run(fmt.Sprintf("every%d", every), func(b *testing.B) {
			cfg := base()
			cfg.Checkpoint = true
			cfg.CheckpointEvery = every
			reg := metrics.NewRegistry()
			cfg.Metrics = reg
			runHarness(b, cfg)
			var epochs, bytes int64
			for _, s := range reg.Snapshot().Counters {
				switch s.Name {
				case metrics.CkptEpochsTotal:
					epochs += s.Value
				case metrics.CkptBytesTotal:
					bytes += s.Value
				}
			}
			if epochs > 0 {
				b.ReportMetric(float64(epochs)/float64(b.N), "ckpt_epochs")
				b.ReportMetric(float64(bytes)/float64(epochs)/1e6, "ckpt_MB/epoch")
				b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(epochs), "ckpt_ms/epoch")
			}
		})
	}
}

// BenchmarkAblation_ParallelCompute measures the per-rank worker scaling of
// the brick kernel (bricks as units of parallel work).
func BenchmarkAblation_ParallelCompute(b *testing.B) {
	dec, err := core.NewBrickDecomp(core.Shape{8, 8, 8}, [3]int{64, 64, 64}, 8, 2, layout.Surface3D())
	if err != nil {
		b.Fatal(err)
	}
	bs := dec.Allocate()
	info := dec.BrickInfo()
	src := core.NewBrick(info, bs, 0)
	dst := core.NewBrick(info, bs, 1)
	st := stencil.Star7()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.SetBytes(int64(8 * 64 * 64 * 64))
			for i := 0; i < b.N; i++ {
				stencil.ApplyBricksParallel(dst, src, dec, st, 0, workers)
			}
		})
	}
}
