package experiments

import (
	"fmt"
	"io"

	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// Fig01 reproduces Figure 1: per-timestep time decomposed into Compute, MPI
// (the modeled wire time, see modelComm) and Packing for the packing
// baseline (YASK role) versus the proposed pack-free Layout, over shrinking
// subdomains on 8 ranks.
func Fig01(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "comp_ms", "mpi_ms", "pack_ms", "total_ms"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range []harness.Impl{harness.YASK, harness.Layout} {
			res, err := harness.Run(k1Config(im, dim, stencil.Star7(), o))
			if err != nil {
				return err
			}
			wire, comm := modelComm(res)
			t.add(fmt.Sprint(dim), im.String(),
				ms(res.Calc.Mean()),
				ms(wire),
				ms(res.Pack.Mean()),
				ms(res.Calc.Mean()+comm))
		}
	}
	return t.emit(o, "fig01", w)
}

// Fig04 reproduces Figure 4: communication time per timestep for the YASK
// baseline (26 packed messages), Basic (98 pack-free messages) and Layout
// (42 pack-free messages).
func Fig04(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "msgs", "comm_ms"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range []harness.Impl{harness.YASK, harness.Basic, harness.Layout} {
			res, err := harness.Run(k1Config(im, dim, stencil.Star7(), o))
			if err != nil {
				return err
			}
			_, comm := modelComm(res)
			t.add(fmt.Sprint(dim), im.String(), fmt.Sprint(res.MsgsPerExchange), ms(comm))
		}
	}
	return t.emit(o, "fig04", w)
}

// Table1 reproduces Table 1: the closed forms Eq. 1-3 for dimensions 1-5,
// cross-checked against the optimizer for D ≤ 3.
func Table1(o Options, w io.Writer) error {
	t := &table{header: []string{"dimensions", "neighbors(Eq.2)", "layout(Eq.1)", "basic(Eq.3)", "optimizer", "construct"}}
	for d := 1; d <= 5; d++ {
		found := "-"
		if d <= 3 {
			found = fmt.Sprint(layout.MessageCount(layout.Surface(d)))
		} else if d == 4 && !o.Quick {
			found = fmt.Sprint(layout.MessageCount(layout.Optimize(d)))
		}
		t.add(fmt.Sprint(d),
			fmt.Sprint(layout.NumNeighbors(d)),
			fmt.Sprint(layout.OptimalMessages(d)),
			fmt.Sprint(layout.BasicMessages(d)),
			found,
			fmt.Sprint(layout.MessageCount(layout.Construct(d))))
	}
	return t.emit(o, "table1", w)
}

// k1Impls are the five rows of Figure 8. YASK-OL is YASK exchanging every
// step, which overlaps the exchange with interior computation; the others
// amortize exchanges with ghost-cell expansion.
var k1Impls = []struct {
	impl   harness.Impl
	expand bool
	label  string
}{
	{harness.MemMap, true, "MemMap"},
	{harness.Layout, true, "Layout"},
	{harness.YASK, true, "YASK"},
	{harness.YASK, false, "YASK-OL"},
	{harness.MPITypes, true, "MPI_Types"},
}

// Fig08 reproduces Figure 8 (K1): 7-point stencil throughput in GStencil/s
// for the five implementations over shrinking subdomains, over the measured
// wall-clock step.
func Fig08(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "gstencil_per_s"}}
	for _, dim := range o.cpuSweep() {
		for _, k := range k1Impls {
			cfg := k1Config(k.impl, dim, stencil.Star7(), o)
			cfg.ExpandGhost = k.expand
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			t.add(fmt.Sprint(dim), k.label, gst(res.GStencils))
		}
	}
	return t.emit(o, "fig08", w)
}

// Fig09 reproduces Figure 9 (K1): per-timestep communication time, with the
// modeled Network floor and the MemMap compute time for reference.
func Fig09(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "comm_ms"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range []harness.Impl{harness.MPITypes, harness.YASK, harness.Layout, harness.MemMap} {
			cfg := k1Config(im, dim, stencil.Star7(), o)
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			_, comm := modelComm(res)
			t.add(fmt.Sprint(dim), im.String(), ms(comm))
			if im == harness.MemMap {
				floor, err := networkFloor(cfg, 1, netmodel.Network)
				if err != nil {
					return err
				}
				t.add(fmt.Sprint(dim), "Network", ms(floor))
				t.add(fmt.Sprint(dim), "Comp", ms(res.Calc.Mean()))
			}
		}
	}
	return t.emit(o, "fig09", w)
}

// Fig10 reproduces Figure 10 (K1): compute time per timestep for different
// layouts — No-Layout is fine-grained blocking with lexicographic block
// order; layout choice must not hurt computation.
func Fig10(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "comp_ms"}}
	for _, dim := range o.cpuSweep() {
		for _, im := range []harness.Impl{harness.MPITypes, harness.YASK, harness.Layout, harness.MemMap, harness.Basic} {
			res, err := harness.Run(k1Config(im, dim, stencil.Star7(), o))
			if err != nil {
				return err
			}
			name := im.String()
			if im == harness.Basic {
				name = "No-Layout"
			}
			t.add(fmt.Sprint(dim), name, ms(res.Calc.Mean()))
		}
	}
	return t.emit(o, "fig10", w)
}

// Fig11 reproduces Figure 11 (K2): strong scaling of a fixed global domain
// with 7-point and 125-point stencils, MemMap vs YASK: the KNL-scale
// extrapolation, with modelComm in place of measured communication.
func Fig11(o Options, w io.Writer) error {
	t := &table{header: []string{"ranks", "stencil", "impl", "gstencil_per_s"}}
	for _, pc := range o.strongConfigs() {
		procs, dim := pc[0], pc[1]
		for _, st := range []stencil.Stencil{stencil.Star7(), stencil.Cube125()} {
			for _, im := range []harness.Impl{harness.MemMap, harness.YASK} {
				cfg := k1Config(im, dim, st, o)
				cfg.Procs = [3]int{procs, procs, procs}
				res, err := harness.Run(cfg)
				if err != nil {
					return err
				}
				points := float64(dim*dim*dim) * float64(procs*procs*procs)
				_, comm := modelComm(res)
				t.add(fmt.Sprint(procs*procs*procs), st.Name, im.String(), gst(points/(res.Calc.Mean()+comm)/1e9))
			}
		}
	}
	return t.emit(o, "fig11", w)
}

// Fig12 reproduces Figure 12 (K2): communication vs computation time per
// timestep during strong scaling of the 7-point stencil.
func Fig12(o Options, w io.Writer) error {
	t := &table{header: []string{"ranks", "impl", "comm_ms", "comp_ms"}}
	for _, pc := range o.strongConfigs() {
		procs, dim := pc[0], pc[1]
		for _, im := range []harness.Impl{harness.YASK, harness.MemMap} {
			cfg := k1Config(im, dim, stencil.Star7(), o)
			cfg.Procs = [3]int{procs, procs, procs}
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			_, comm := modelComm(res)
			t.add(fmt.Sprint(procs*procs*procs), im.String(), ms(comm), ms(res.Calc.Mean()))
		}
	}
	return t.emit(o, "fig12", w)
}

// Fig18 reproduces Figure 18: the effect of page size on MemMap
// communication time, with YASK and MPI_Types for reference. Padding to
// larger pages costs bandwidth but MemMap stays ahead.
func Fig18(o Options, w io.Writer) error {
	t := &table{header: []string{"dim", "impl", "comm_ms", "wire_bytes"}}
	for _, dim := range o.cpuSweep() {
		for _, page := range []int{4096, 16384, 65536} {
			cfg := k1Config(harness.MemMap, dim, stencil.Star7(), o)
			cfg.Machine.PageSize = page
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			_, comm := modelComm(res)
			t.add(fmt.Sprint(dim), fmt.Sprintf("MemMap-%dKiB", page/1024), ms(comm), fmt.Sprint(res.WireBytes))
		}
		for _, im := range []harness.Impl{harness.YASK, harness.MPITypes} {
			res, err := harness.Run(k1Config(im, dim, stencil.Star7(), o))
			if err != nil {
				return err
			}
			_, comm := modelComm(res)
			t.add(fmt.Sprint(dim), im.String()+"*", ms(comm), fmt.Sprint(res.WireBytes))
		}
	}
	return t.emit(o, "fig18", w)
}

// Table3 reproduces Table 3: the qualitative comparison of cost types.
func Table3(o Options, w io.Writer) error {
	t := &table{header: []string{"cost_type", "array", "layout", "memmap"}}
	t.add("strided packing", "high", "-", "-")
	t.add("extra messages", "-", "low (Sec. 3.3: +16 msgs in 3D)", "-")
	t.add("manual CPU-GPU movement", "high", "-", "-")
	t.add("large-page padding", "-", "-", "low (Sec. 7.3)")
	return t.emit(o, "table3", w)
}
