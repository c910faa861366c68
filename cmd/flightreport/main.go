// Command flightreport renders a brick-flight/v1 artifact — the flight
// recorder snapshot a -flight run writes when it finishes (weak on chan),
// when the watchdog trips, a rank aborts, or the recovery budget runs out —
// as a forensic report: each rank's event timeline, the causal chain behind
// every pending operation (following send-sequence stamps across ranks),
// and the blamed edge that never fired.
//
//	flightreport brick-flight.bin
//	flightreport -n 32 brick-flight.bin
//	flightreport -chrome flight-trace.json brick-flight.bin
//	flightreport -metrics m.json [brick-flight.bin]
//
// -chrome exports the rings as a Chrome trace (chrome://tracing, Perfetto)
// with wait intervals reconstructed from their start/done pairs.
//
// -metrics prints the per-rank critical-path report of a metrics snapshot
// (written by weak or soak with -metrics-out) instead of the forensic
// report: each rank's calc/pack/call/wait shares, and the longest
// back-to-back chain on its timeline, read off the artifact when one is
// given and from the phase shares alone when not.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
)

func main() {
	var (
		lastN       = flag.Int("n", 16, "events shown per rank timeline (<= 0 shows all retained)")
		chrome      = flag.String("chrome", "", "also export the rings as a Chrome trace JSON to this path")
		metricsPath = flag.String("metrics", "", "print the critical-path report of this metrics snapshot (brick-metrics/v1), with chains read off the artifact if given")
	)
	flag.Parse()
	// The artifact is optional only for a report from metrics alone.
	if !(flag.NArg() == 1 || flag.NArg() == 0 && *metricsPath != "" && *chrome == "") {
		fmt.Fprintln(os.Stderr, "usage: flightreport [-n 16] [-chrome out.json] [-metrics m.json] <brick-flight.bin>\n       flightreport -metrics m.json")
		os.Exit(2)
	}
	var snap *flight.Snapshot
	if flag.NArg() == 1 {
		var err error
		if snap, err = flight.ReadFile(flag.Arg(0)); err != nil {
			fail(err)
		}
	}
	if *metricsPath != "" {
		critpath(*metricsPath, snap)
	} else if err := flight.WriteFlightReport(os.Stdout, snap, *lastN); err != nil {
		fail(err)
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fail(err)
		}
		err = flight.WriteChromeTrace(f, flight.ToTrace(snap))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "flightreport: Chrome trace written to %s\n", *chrome)
	}
}

// critpath prints the per-rank critical-path report of a metrics snapshot;
// fs may be nil.
func critpath(metricsPath string, fs *flight.Snapshot) {
	ms, err := metrics.LoadSnapshot(metricsPath)
	if err != nil {
		fail(err)
	}
	reports := flight.Analyze(ms, fs)
	if len(reports) == 0 {
		fail(fmt.Errorf("no phase histograms in %s (was the run instrumented?)", metricsPath))
	}
	if err := flight.WriteReport(os.Stdout, reports); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "flightreport: %v\n", err)
	os.Exit(1)
}
