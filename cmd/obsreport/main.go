// Command obsreport turns observability artifacts into human-readable
// reports: a per-rank critical-path report from a metrics snapshot (written
// by cmd/strong or cmd/weak with -metrics-out), optionally merged with a
// Chrome trace (cmd/weak -trace, the flight export of the same run) for the
// per-rank longest-chain analysis:
//
//	obsreport m.json
//	obsreport -trace t.json m.json
//	obsreport -flight brick-flight.bin m.json
//
// -flight merges a brick-flight/v1 recorder artifact: ranks without a
// trace-derived chain get their chain read off the recorded flight events
// (the step loop's actual phase/wait order) instead of the canonical-order
// fallback.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/obs"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "Chrome trace JSON to merge into the chain analysis")
		flightPath = flag.String("flight", "", "brick-flight/v1 recorder artifact to merge into the chain analysis")
	)
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-trace t.json] [-flight f.bin] <metrics.json>")
		os.Exit(2)
	}
	report(flag.Arg(0), *tracePath, *flightPath)
}

// report prints the per-rank critical-path breakdown.
func report(metricsPath, tracePath, flightPath string) {
	snap, err := metrics.LoadSnapshot(metricsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(1)
	}
	var events []flight.TraceEvent
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
			os.Exit(1)
		}
		events, err = flight.ReadChromeTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
			os.Exit(1)
		}
	}
	var fs *flight.Snapshot
	if flightPath != "" {
		if fs, err = flight.ReadFile(flightPath); err != nil {
			fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
			os.Exit(1)
		}
	}
	reports := obs.AnalyzeWithFlight(snap, events, fs)
	if len(reports) == 0 {
		fmt.Fprintln(os.Stderr, "obsreport: no phase histograms in snapshot (was the run instrumented?)")
		os.Exit(1)
	}
	if err := obs.WriteReport(os.Stdout, reports); err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(1)
	}
}
