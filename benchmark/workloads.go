package main

import (
	"fmt"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// workload is one named benchmark input: a harness configuration and the
// fixed number of timesteps one repetition runs. Names are referred to by
// later issues and never change.
type workload struct {
	Name string
	Why  string
	Cfg  harness.Config
	// Steps is S: sized so one repetition lasts about 2 s on the 2-core
	// reference host, a multiple of the exchange period, and identical on
	// both commits of any comparison.
	Steps int
}

// baseConfig is the load shape shared by every workload: a periodic 2×1×1
// rank grid with one compute thread per rank (2 threads = nproc of the
// reference sandbox), ghost 8, brick 8³, machine theta-knl. Only
// default-path Config fields are set.
func baseConfig(im harness.Impl, dim int, st stencil.Stencil, expand bool, transport string) harness.Config {
	return harness.Config{
		Impl:        im,
		Procs:       [3]int{2, 1, 1},
		Dom:         [3]int{dim, dim, dim},
		Transport:   transport,
		Ghost:       8,
		Shape:       core.Shape{8, 8, 8},
		Stencil:     st,
		Machine:     netmodel.ThetaKNL(),
		ExpandGhost: expand,
		Workers:     1,
	}
}

// workloads lists the six workloads in their fixed order.
func workloads() []workload {
	return []workload{
		{
			Name:  "calc64-layout-chan",
			Why:   "Layout 64^3 7pt ghost-expanded on chan, S=280: the paper's K1 case; the brick kernel is ~0.9 of the step.",
			Cfg:   baseConfig(harness.Layout, 64, stencil.Star7(), true, "chan"),
			Steps: 280,
		},
		{
			Name:  "calc64-yask-chan",
			Why:   "YASK 64^3 7pt ghost-expanded on chan, S=560: the array baseline with pack/unpack; same stencil layer used differently.",
			Cfg:   baseConfig(harness.YASK, 64, stencil.Star7(), true, "chan"),
			Steps: 560,
		},
		{
			Name:  "calc32-125pt-layout-chan",
			Why:   "Layout 32^3 125pt ghost-expanded on chan, S=128: generic point-table kernel; bypasses any 7-point specialisation.",
			Cfg:   baseConfig(harness.Layout, 32, stencil.Cube125(), true, "chan"),
			Steps: 128,
		},
		{
			Name:  "halo16-memmap-chan",
			Why:   "MemMap 16^3 7pt exchanging every step on chan, S=10000: 26 mmap-view messages + sync dominate; kernel is the minority.",
			Cfg:   baseConfig(harness.MemMap, 16, stencil.Star7(), false, "chan"),
			Steps: 10000,
		},
		{
			Name:  "halo32-layout-shmem",
			Why:   "Layout 32^3 7pt exchanging every step on shmem, S=1600: worker processes, rings, staging copies, cross-process waits.",
			Cfg:   baseConfig(harness.Layout, 32, stencil.Star7(), false, "shmem"),
			Steps: 1600,
		},
		{
			Name:  "halo32-layout-tcp",
			Why:   "Layout 32^3 7pt exchanging every step on tcp, S=300: frame encode + CRC + syscalls are ~0.9 of the step; kernel ~0.1.",
			Cfg:   baseConfig(harness.Layout, 32, stencil.Star7(), false, "tcp"),
			Steps: 300,
		},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// globalPoints is the number of stencil updates one timestep performs over
// the whole domain (redundant ghost-expansion updates not counted).
func globalPoints(c harness.Config) float64 {
	return float64(c.Dom[0]*c.Procs[0]) * float64(c.Dom[1]*c.Procs[1]) * float64(c.Dom[2]*c.Procs[2])
}

// exchangePeriod mirrors the harness rule: ghost expansion amortises one
// exchange over Ghost/Radius timesteps.
func exchangePeriod(c harness.Config) int {
	if !c.ExpandGhost {
		return 1
	}
	return c.Ghost / c.Stencil.Radius
}

// metricDef describes one reported metric. Bound is set for end-to-end
// metrics only; Layer and Moves for per-layer metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

// endToEndMetrics are what a user of the system sees, per workload, measured
// with tracing, metrics and the flight recorder off. The issue's fifth
// metric, fail_share, is failed ÷ attempted of the result line: the contract
// wants metrics that are never 0, and fail_share must stay 0.
//
// A bound is one number per metric, so it is set by the noisiest workload. On
// the 2-core reference host the ten-run quartile spread of step_ms measured
// 1.4–4% on the chan workloads and 8–14% on the two multi-process workloads
// (worker processes and their polling threads oversubscribe the cores, and
// the host itself drifts). The issue's 10% would reject the benchmark against
// itself, so the time metrics carry the contract's largest bound; paired
// runs, not the bound, resolve smaller differences.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{Name: "step_ms", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "gstencils_wall", Unit: "Gupd/s", Better: "higher", Bound: 0.25},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	}
}

// perLayerMetrics lists every per-layer metric with the layer it belongs to
// and the (end-to-end metric, workload) it should move.
func perLayerMetrics() []metricDef {
	lower := func(layer, name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Layer: layer, Moves: moves}
	}
	higher := func(layer, name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", Layer: layer, Moves: moves}
	}
	const own = "step_ms of the same workload"
	defs := []metricDef{
		// (A) the untraced run's public harness.Result.
		lower("harness", "harness.calc_ms", "ms", own),
		lower("harness", "harness.pack_ms", "ms", own),
		lower("harness", "harness.call_ms", "ms", own),
		lower("harness", "harness.wait_ms", "ms", own),
		lower("harness", "harness.sync_ms", "ms", own),
		// (B) the traced replica: mean self time per step per rank.
		lower("stencil", "stencil.apply_ms", "ms", own),
		lower("core", "exch.start_ms", "ms", own),
		lower("core", "exch.complete_ms", "ms", own),
		lower("core", "exch.pack_ms", "ms", own),
		lower("mpi", "mpi.barrier_ms", "ms", own),
		lower("replica", "replica.other_ms", "ms", own),
		lower("replica", "replica.step_ratio", "ratio", "must lie in 0.9-1.1"),
		lower("replica", "trace.overhead_pct", "%", "none: cost of the benchmark's own spans"),
		// (B) counts at the same boundaries; they repeat exactly.
		lower("core", "core.msgs_per_exchange", "count", "step_ms on halo16-memmap-chan"),
		lower("core", "core.data_bytes_per_exchange", "bytes", "step_ms on halo32-layout-tcp"),
		lower("core", "core.wire_bytes_per_exchange", "bytes", "step_ms on halo32-layout-tcp"),
		lower("core", "core.pad_ratio", "ratio", "peak_rss_mb on halo16-memmap-chan"),
		lower("mpi", "mpi.sent_msgs_per_step", "count", "step_ms on the halo* workloads"),
		lower("mpi", "mpi.sent_bytes_per_step", "bytes", "step_ms on halo32-layout-tcp"),
		lower("stencil", "stencil.elems_per_step", "count", "step_ms on the three calc* workloads"),
		lower("stencil", "stencil.redundant_share", "ratio", "step_ms on the three calc* workloads"),
		lower("stencil", "stencil.flops_per_elem", "count", "none: computed, describes the kernel"),
		lower("stencil", "stencil.bytes_per_elem", "bytes", "none: computed from array sizes"),
		// (C) stencil kernels, 1 thread, margin 0.
		lower("stencil", "stencil.brick7.ns_per_elem", "ns", "step_ms on calc64-layout-chan only"),
		lower("stencil", "stencil.brick7.mapped.ns_per_elem", "ns", "step_ms on halo16-memmap-chan"),
		lower("stencil", "stencil.brick7.lexorder.ns_per_elem", "ns", "none: Basic order is in no workload"),
		lower("stencil", "stencil.grid7.ns_per_elem", "ns", "step_ms on calc64-yask-chan only"),
		lower("stencil", "stencil.brick125.ns_per_elem", "ns", "step_ms on calc32-125pt-layout-chan only"),
		lower("stencil", "stencil.grid125.ns_per_elem", "ns", "none: 125pt arrays are in no workload"),
		lower("stencil", "stencil.brick_over_grid7", "ratio", "ROADMAP item 2 target <= 1.25"),
		lower("stencil", "stencil.brick_over_grid125", "ratio", "ROADMAP item 2 target <= 1.25"),
		// (C) exchange engines, 2 goroutine ranks on chan, 32^3, no compute.
		lower("core", "core.layout.exchange_us", "us", "step_ms on the halo32 workloads"),
		lower("core", "core.layout.ns_per_msg", "ns", "step_ms on the halo32 workloads"),
		lower("core", "core.memmap.exchange_us", "us", "step_ms on halo16-memmap-chan"),
		lower("core", "core.memmap.ns_per_msg", "ns", "step_ms on halo16-memmap-chan"),
		lower("grid", "grid.pack.exchange_us", "us", "none visible: pack is ~2% of calc64-yask-chan"),
		higher("grid", "grid.pack.mb_per_s", "MB/s", "none visible: pack is ~2% of calc64-yask-chan"),
		lower("core", "core.hotpath.allocs_per_step", "count", "must be 0"),
		lower("core", "core.decomp.build_ms", "ms", "setup_s on every workload"),
		lower("core", "core.plan.compile_ms", "ms", "setup_s on every workload"),
	}
	// (C) mpi primitives, world size 2, once per transport.
	for _, tr := range []string{"chan", "shmem", "tcp"} {
		moves := map[string]string{
			"chan":  "step_ms on halo16-memmap-chan; none on shmem/tcp workloads",
			"shmem": "step_ms on halo32-layout-shmem; none on chan/tcp workloads",
			"tcp":   "step_ms on halo32-layout-tcp; none on chan/shmem workloads",
		}[tr]
		p := "mpi." + tr + "."
		defs = append(defs,
			lower("mpi", p+"persist.rtt_us", "us", moves),
			higher("mpi", p+"persist.mb_per_s", "MB/s", moves),
			lower("mpi", p+"oneshot.rtt_us", "us", moves),
			lower("mpi", p+"barrier_us", "us", moves),
			lower("mpi", p+"allreduce_us", "us", moves),
		)
	}
	return append(defs,
		lower("tcpconn", "tcpconn.frame.ns_per_frame", "ns", "step_ms on halo32-layout-tcp"),
		higher("tcpconn", "tcpconn.frame.mb_per_s", "MB/s", "step_ms on halo32-layout-tcp"),
		lower("shmem", "shmem.mapvector.us_per_view", "us", "setup_s on halo16-memmap-chan"),
		lower("shmem", "shmem.arena.create_ms", "ms", "setup_s on halo16-memmap-chan"),
		lower("layout", "layout.optimize3d.ms", "ms", "none: the 3D order is precomputed"),
		lower("layout", "layout.messages3d", "count", "must be 42"),
		lower("proc", "proc.shmem.spawn_ms", "ms", "setup_s on halo32-layout-shmem"),
		lower("proc", "proc.tcp.spawn_ms", "ms", "setup_s on halo32-layout-tcp"),
		lower("metrics", "metrics.overhead_pct", "%", "none: recorders are off in every e2e run"),
		lower("flight", "flight.overhead_pct", "%", "none: recorders are off in every e2e run"),
		higher("ckpt", "ckpt.encode.mb_per_s", "MB/s", "none: no checkpoint workload"),
		higher("ckpt", "ckpt.decode.mb_per_s", "MB/s", "none: no checkpoint workload"),
		lower("ckpt", "ckpt.spill.ms_per_epoch", "ms", "none: no checkpoint workload"),
	)
}
