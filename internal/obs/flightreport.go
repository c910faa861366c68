package obs

import (
	"fmt"
	"io"

	"github.com/bricklab/brick/internal/flight"
	"github.com/bricklab/brick/internal/metrics"
)

// WriteFlightReport renders a brick-flight/v1 snapshot as the flightreport
// text format: the capture metadata, each rank's last-N-event timeline, and
// one causal chain per pending operation with its blamed edge:
//
//	flight artifact: reason=stall depth=1024 ranks=8
//	rank 3: 240 events (0 dropped), last 4:
//	  [   +1.204ms] tile-start step=2 tile=7
//	  ...
//	pending psend-partial src=3 dst=5 tag=41:
//	  rank 3  [   +1.102ms] send-post step=2 peer=5 tag=41 seq=3 ...
//	  ...
//	  blamed: rank 3 tile 7 started but never finished, ...
//
// lastN bounds each rank's timeline (<= 0 shows every retained event).
func WriteFlightReport(w io.Writer, s *flight.Snapshot, lastN int) error {
	tr := ""
	if s.Transport != "" {
		tr = " transport=" + s.Transport
	}
	if _, err := fmt.Fprintf(w, "flight artifact: reason=%s%s depth=%d ranks=%d\n",
		s.Reason, tr, s.Depth, len(s.Ranks)); err != nil {
		return err
	}
	if s.Detail != "" {
		if _, err := fmt.Fprintf(w, "detail: %s\n", firstLine(s.Detail)); err != nil {
			return err
		}
	}
	for _, rl := range s.Ranks {
		evs := rl.Events
		shown := len(evs)
		if lastN > 0 && shown > lastN {
			evs = evs[len(evs)-lastN:]
			shown = lastN
		}
		if _, err := fmt.Fprintf(w, "rank %d: %d events (%d dropped), last %d:\n",
			rl.Rank, rl.Total, rl.Dropped, shown); err != nil {
			return err
		}
		for _, e := range evs {
			if _, err := fmt.Fprintf(w, "  %s\n", e.String()); err != nil {
				return err
			}
		}
	}
	for _, ch := range CausalChains(s) {
		if _, err := fmt.Fprintf(w, "pending %s:\n", ch.Pending); err != nil {
			return err
		}
		if len(ch.Links) == 0 {
			if _, err := fmt.Fprintln(w, "  (no matching events retained in the rings)"); err != nil {
				return err
			}
		}
		for _, l := range ch.Links {
			arrow := " "
			if l.Cross {
				arrow = ">" // hop from a delivery to the peer's stamped send
			}
			if _, err := fmt.Fprintf(w, " %s rank %d  %s\n", arrow, l.Rank, l.Event.String()); err != nil {
				return err
			}
		}
		if ch.Blame != "" {
			if _, err := fmt.Fprintf(w, "  blamed: %s\n", ch.Blame); err != nil {
				return err
			}
		}
	}
	return nil
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// AnalyzeWithFlight is Analyze with flight-recorder data: for ranks whose
// timeline has no trace-derived chain, the chain is read off the rank's
// recorded flight events — the actual order of phases and waits of its last
// complete step — instead of the canonical-order fallback. fs may be nil
// (plain Analyze).
func AnalyzeWithFlight(snap *metrics.Snapshot, events []flight.TraceEvent, fs *flight.Snapshot) []RankReport {
	reports := Analyze(snap, events)
	if fs == nil {
		return reports
	}
	chains := map[int][]string{}
	for _, rl := range fs.Ranks {
		if ch := flightChain(rl.Events); len(ch) > 0 {
			chains[rl.Rank] = ch
		}
	}
	for i := range reports {
		if reports[i].ChainDur > 0 {
			continue // trace-derived chain wins: it carries durations
		}
		if rk, ok := parseRank(reports[i].Rank); ok {
			if ch, ok := chains[rk]; ok {
				reports[i].Chain = ch
			}
		}
	}
	return reports
}

func parseRank(s string) (int, bool) {
	n := 0
	if s == "" {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// flightChain derives a rank's within-step chain from its ring: the phase
// transitions and wait spans of the last complete step, in recorded order,
// with consecutive duplicates collapsed.
func flightChain(evs []flight.Event) []string {
	// Find the last two step markers; the span between them is the last
	// complete step. With fewer than two markers use everything retained.
	last, prev := -1, -1
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == flight.KindStep {
			if last == -1 {
				last = i
			} else {
				prev = i
				break
			}
		}
	}
	span := evs
	if prev >= 0 {
		span = evs[prev:last]
	}
	var chain []string
	push := func(s string) {
		if len(chain) == 0 || chain[len(chain)-1] != s {
			chain = append(chain, s)
		}
	}
	for _, e := range span {
		switch e.Kind {
		case flight.KindPhase:
			switch e.Part {
			case flight.PhaseExchange:
				push("exchange")
			case flight.PhaseInterior:
				push("interior")
			case flight.PhaseSurface:
				push("surface")
			}
		case flight.KindWaitStart:
			push("wait")
		case flight.KindCkpt:
			push("ckpt")
		}
	}
	return chain
}
