package experiments

import (
	"fmt"
	"io"

	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// v1Impls are the four GPU strategies of Figures 13-15.
var v1Impls = []harness.Impl{harness.GPULayoutCA, harness.GPULayoutUM, harness.GPUMemMapUM, harness.GPUTypesUM}

// Fig13 reproduces Figure 13 (V1): GPU 7-point stencil throughput on 8
// simulated V100 ranks. Times are modeled (see internal/gpu).
func Fig13(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "gstencil_per_s"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range v1Impls {
			res, err := harness.Run(v1Config(im, dim, stencil.Star7(), o))
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(dim), im.String(), gst(res.GStencils))
		}
	}
	return t.emit(o, "fig13", w)
}

// Fig14 reproduces Figure 14 (V1): modeled GPU communication time per
// timestep, with the NetworkCA floor and MemMapUM compute for reference.
func Fig14(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "comm_ms"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range v1Impls {
			cfg := v1Config(im, dim, stencil.Star7(), o)
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(dim), im.String(), ms(res.Comm.Mean()))
			if im == harness.GPULayoutCA {
				floor, err := networkFloor(cfg, 2, netmodel.GPUDirect)
				if err != nil {
					return err
				}
				t.add(fmt.Sprint(dim), "NetworkCA", ms(floor))
			}
			if im == harness.GPUMemMapUM {
				t.add(fmt.Sprint(dim), "Comp", ms(res.Calc.Mean()))
			}
		}
	}
	return t.emit(o, "fig14", w)
}

// Fig15 reproduces Figure 15 (V1): modeled GPU compute time per timestep.
// LayoutCA and MemMapUM avoid compute-side page faults; LayoutUM and
// MPI_TypesUM pay them because their communicated regions are not
// page-aligned.
func Fig15(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "comp_ms"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range v1Impls {
			res, err := harness.Run(v1Config(im, dim, stencil.Star7(), o))
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(dim), im.String(), ms(res.Calc.Mean()))
		}
	}
	return t.emit(o, "fig15", w)
}

// Table2 reproduces Table 2 (V1): network transfer increase from padding and
// achieved bandwidth per strategy.
func Table2(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "padding_overhead_pct", "achieved_GB_per_s"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range []harness.Impl{harness.GPULayoutCA, harness.GPULayoutUM, harness.GPUMemMapUM} {
			res, err := harness.Run(v1Config(im, dim, stencil.Star7(), o))
			if err != nil {
				return err
			}
			over := 0.0
			if res.DataBytes > 0 {
				over = 100 * float64(res.WireBytes-res.DataBytes) / float64(res.DataBytes)
			}
			// Achieved bandwidth: wire bytes per exchange over the modeled
			// comm time per exchange (comm is averaged per timestep; one
			// exchange covers ghost/radius steps).
			commPerExchange := res.Comm.Mean() * float64(res.Config.ExchangePeriod())
			bw := 0.0
			if commPerExchange > 0 {
				bw = float64(res.WireBytes) / commPerExchange
			}
			t.add(fmt.Sprint(dim), im.String(), pct(over), gbps(bw))
		}
	}
	return t.emit(o, "table2", w)
}

// Fig16 reproduces Figure 16 (V2): GPU strong scaling throughput for 7pt and
// 125pt stencils, LayoutCA and MemMapUM vs MPI_TypesUM.
func Fig16(o Options, w io.Writer) error {
	t := &table{header: []string{"ranks", "stencil", "impl", "gstencil_per_s"}}
	for _, pc := range o.strongConfigs() {
		procs, dim := pc[0], pc[1]
		for _, st := range []stencil.Stencil{stencil.Star7(), stencil.Cube125()} {
			for _, im := range []harness.Impl{harness.GPULayoutCA, harness.GPUMemMapUM, harness.GPUTypesUM} {
				cfg := v1Config(im, dim, st, o)
				cfg.Procs = [3]int{procs, procs, procs}
				res, err := harness.Run(cfg)
				if err != nil {
					return err
				}
				t.add(fmt.Sprint(procs*procs*procs), st.Name, im.String(), gst(res.GStencils))
			}
		}
	}
	return t.emit(o, "fig16", w)
}

// Fig17 reproduces Figure 17 (V2): modeled communication vs computation
// during GPU strong scaling of the 7-point stencil.
func Fig17(o Options, w io.Writer) error {
	t := &table{header: []string{"ranks", "impl", "comm_ms", "comp_ms"}}
	for _, pc := range o.strongConfigs() {
		procs, dim := pc[0], pc[1]
		for _, im := range []harness.Impl{harness.GPUTypesUM, harness.GPUMemMapUM, harness.GPULayoutCA} {
			cfg := v1Config(im, dim, stencil.Star7(), o)
			cfg.Procs = [3]int{procs, procs, procs}
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(procs*procs*procs), im.String(), ms(res.Comm.Mean()), ms(res.Calc.Mean()))
		}
	}
	return t.emit(o, "fig17", w)
}
