// Command weak mirrors the paper artifact's experiment executables: it runs
// one configuration on a periodic rank grid and prints the artifact's five
// metrics — calc, pack, call, wait (seconds per timestep, as
// [minimum, average, maximum] (σ)) and perf (overall GStencil/s) — plus
// step, the wall-clock time per timestep that perf divides by.
//
// Example (the paper's K1 point at subdomain 32³ with the Layout method):
//
//	weak -impl layout -d 32 -I 16 -ranks 2,2,2
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/bricklab/brick/internal/cli"
	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/mpi"
)

func main() {
	// Under -transport shmem this binary doubles as its own rank worker.
	harness.WorkerMain()
	var (
		implName = flag.String("impl", "layout", "implementation: "+cli.ImplNames())
		dim      = flag.Int("d", 32, "cubic subdomain dimension per rank (elements)")
		warmup   = flag.Int("warmup", 2, "untimed warmup timesteps")
		ranks    = flag.String("ranks", "2,2,2", "rank grid i,j,k (periodic)")
		expand   = flag.Bool("expand", true, "use ghost-cell expansion")
		page     = flag.Int("page", 0, "override page size for MemMap padding (bytes)")
	)
	common := cli.RegisterCommon(8, 8, 16)
	flag.Parse()

	im, err := cli.ParseImpl(*implName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "weak: %v\n", err)
		os.Exit(2)
	}
	procs, err := cli.ParseRanks(*ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "weak: -ranks: %v\n", err)
		os.Exit(2)
	}
	r, err := common.Resolve("weak")
	if err != nil {
		fmt.Fprintf(os.Stderr, "weak: %v\n", err)
		os.Exit(2)
	}

	cfg := harness.Config{
		Impl:        im,
		Procs:       procs,
		Dom:         [3]int{*dim, *dim, *dim},
		Warmup:      *warmup,
		ExpandGhost: *expand,
	}
	common.Apply(&cfg, r)
	if *page > 0 {
		cfg.Machine.PageSize = *page
	}
	if common.Flight && common.Transport == mpi.DefaultTransport {
		// On chan the rings live in this process, so a finished run can
		// leave its artifact at -flight-out just as a failed one does.
		cfg.FlightRec = flight.New(procs[0]*procs[1]*procs[2], common.FlightDepth)
	}
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "weak: %v\n", err)
		os.Exit(1)
	}
	if err := common.Finish("weak", r.Registry); err != nil {
		fmt.Fprintf(os.Stderr, "weak: %v\n", err)
		os.Exit(1)
	}
	if cfg.FlightRec != nil {
		snap := cfg.FlightRec.Snapshot("complete", "", nil)
		snap.Transport = common.Transport
		if err := snap.WriteFile(common.FlightOut); err != nil {
			fmt.Fprintf(os.Stderr, "weak: flight: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "weak: flight artifact written to %s (inspect with flightreport)\n", common.FlightOut)
	}

	fmt.Printf("impl=%s dim=%d ranks=%v stencil=%s steps=%d msgs/exchange=%d wire=%dB",
		im, *dim, procs, r.Stencil.Name, common.Iters, res.MsgsPerExchange, res.WireBytes)
	if res.Modeled {
		fmt.Print(" [modeled]")
	}
	if res.Plan != nil {
		fmt.Printf(" plan=%s/%s", res.Plan.Variant, res.Plan.Digest[:8])
	}
	fmt.Println()
	fmt.Printf("calc %s\n", res.Calc.String())
	fmt.Printf("pack %s\n", res.Pack.String())
	fmt.Printf("call %s\n", res.Call.String())
	fmt.Printf("wait %s\n", res.Wait.String())
	fmt.Printf("step %s\n", res.Step.String())
	fmt.Printf("perf %.4f GStencil/s\n", res.GStencils)
}
