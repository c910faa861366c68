// Command flightreport renders a brick-flight/v1 artifact — the flight
// recorder snapshot a -flight run writes when the watchdog trips, a rank
// aborts, or the recovery budget runs out — as a forensic report: each
// rank's event timeline, the causal chain behind every pending operation
// (following send-sequence stamps across ranks), and the blamed edge that
// never fired.
//
//	flightreport brick-flight.bin
//	flightreport -n 32 brick-flight.bin
//	flightreport -chrome flight-trace.json brick-flight.bin
//
// -chrome exports the rings as a Chrome trace (chrome://tracing, Perfetto)
// with wait and tile intervals reconstructed from their start/done pairs.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/obs"
)

func main() {
	var (
		lastN  = flag.Int("n", 16, "events shown per rank timeline (<= 0 shows all retained)")
		chrome = flag.String("chrome", "", "also export the rings as a Chrome trace JSON to this path")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: flightreport [-n 16] [-chrome out.json] <brick-flight.bin>")
		os.Exit(2)
	}
	snap, err := flight.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "flightreport: %v\n", err)
		os.Exit(1)
	}
	if err := obs.WriteFlightReport(os.Stdout, snap, *lastN); err != nil {
		fmt.Fprintf(os.Stderr, "flightreport: %v\n", err)
		os.Exit(1)
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flightreport: %v\n", err)
			os.Exit(1)
		}
		err = flight.WriteChromeTrace(f, flight.ToTrace(snap))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "flightreport: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "flightreport: Chrome trace written to %s\n", *chrome)
	}
}
