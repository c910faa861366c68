// Command strong runs a strong-scaling sweep (the paper's K2/V2): a fixed
// global domain divided over increasing rank counts, reporting per-timestep
// communication/computation time and throughput for each point.
//
// Example:
//
//	strong -global 128 -impl memmap,yask -stencil 7pt
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/bricklab/brick/internal/cli"
	"github.com/bricklab/brick/internal/harness"
)

func main() {
	// Under -transport shmem this binary doubles as its own rank worker.
	harness.WorkerMain()
	var (
		global   = flag.Int("global", 128, "global cubic domain dimension")
		implList = flag.String("impl", "memmap,yask", "comma-separated implementations")
		maxRanks = flag.Int("max-ranks", 512, "largest rank count to attempt")
	)
	common := cli.RegisterCommon(8, 8, 8)
	flag.Parse()

	res, err := common.Resolve("strong")
	if err != nil {
		fmt.Fprintf(os.Stderr, "strong: %v\n", err)
		os.Exit(2)
	}
	sel, err := cli.ParseImplList(*implList)
	if err != nil {
		fmt.Fprintf(os.Stderr, "strong: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("%-6s %-12s %-10s %-12s %-12s %-12s\n", "ranks", "impl", "dim/rank", "comm_ms", "comp_ms", "GStencil/s")
	for procs := 2; ; procs *= 2 {
		n := procs * procs * procs
		if n > *maxRanks {
			break
		}
		dim := *global / procs
		if dim < 2*common.Ghost || dim%common.Brick != 0 {
			break
		}
		for _, im := range sel {
			cfg := harness.Config{
				Impl:        im,
				Procs:       [3]int{procs, procs, procs},
				Dom:         [3]int{dim, dim, dim},
				Warmup:      1,
				ExpandGhost: true,
			}
			common.Apply(&cfg, res)
			out, err := harness.Run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "strong: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-6d %-12s %-10d %-12.4f %-12.4f %-12.4f\n",
				n, im.String(), dim, out.Comm.Mean()*1e3, out.Calc.Mean()*1e3, out.GStencils)
		}
	}
	if err := common.Finish("strong", res.Registry); err != nil {
		fmt.Fprintf(os.Stderr, "strong: %v\n", err)
		os.Exit(1)
	}
}
