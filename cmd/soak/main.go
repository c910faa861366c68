// Command soak drives the fault-injection soak sweep: every selected CPU
// implementation runs the same configuration twice — once clean, once under
// the fault spec — and the final checksums must be bit-identical. With
// -ckpt the faulted runs are allowed to crash and recover from checkpoints,
// so bit-identity asserts deterministic replay; without it the spec must be
// benign (delays, stalls, map failures).
//
// Examples:
//
//	soak -fault 'delay:rank=*:mean=200us:jitter=0.5,mapfail:rank=1'
//	soak -ckpt -verify-crc -fault 'panic:rank=3:step=5,corrupt:rank=2:nth=40'
//
// Exit status 1 on any mismatch or unrecovered failure, for CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/cli"
	"github.com/bricklab/brick/internal/harness"
)

func main() {
	// Under -transport shmem this binary doubles as its own rank worker.
	harness.WorkerMain()
	var (
		implList = flag.String("impls", "", "comma-separated implementations to soak (default: all CPU impls)")
		dim      = flag.Int("d", 16, "cubic subdomain dimension per rank (elements)")
		warmup   = flag.Int("warmup", 1, "untimed warmup timesteps")
		ranks    = flag.String("ranks", "2,2,2", "rank grid i,j,k (periodic)")
	)
	common := cli.RegisterCommon(4, 4, 4)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "soak: "+format+"\n", args...)
		os.Exit(1)
	}
	impls := harness.SoakImpls
	if *implList != "" {
		var err error
		if impls, err = cli.ParseImplList(*implList); err != nil {
			fail("-impls: %v", err)
		}
		for _, im := range impls {
			if im.GPU() {
				fail("-impls: %v is modeled (GPU); the soak compares measured state", im)
			}
		}
	}
	procs, err := cli.ParseRanks(*ranks)
	if err != nil {
		fail("-ranks: %v", err)
	}
	resolved, err := common.Resolve("soak")
	if err != nil {
		fail("%v", err)
	}
	if common.Fault == "" {
		fail("a fault spec is required (-fault, see docs/robustness.md)")
	}
	watchdog := common.Watchdog
	if watchdog == 0 {
		// The soak injects failures on purpose; never let one hang CI.
		watchdog = 30 * time.Second
	}

	base := harness.Config{
		Procs:  procs,
		Dom:    [3]int{*dim, *dim, *dim},
		Warmup: *warmup,
	}
	common.Apply(&base, resolved)

	names := make([]string, len(impls))
	for i, im := range impls {
		names[i] = im.String()
	}
	mode := "fail-loud"
	if base.Checkpoint {
		mode = fmt.Sprintf("recover (every %d steps, budget %d)", base.CheckpointEvery, base.MaxRecoveries)
	}
	fmt.Printf("soak: impls=%s mode=%s crc=%v\n", strings.Join(names, ","), mode, base.VerifyCRC)

	rep, err := harness.SoakSet(base, impls, common.Fault, common.FaultSeed, watchdog)
	fmt.Print(rep)
	if err != nil {
		fail("%v", err)
	}
	if reg := resolved.Registry; reg != nil {
		if err := common.Finish("soak", reg); err != nil {
			fail("%v", err)
		}
	}
	fmt.Println("soak: all implementations bit-identical under injection")
}
