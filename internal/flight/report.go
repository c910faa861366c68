package flight

import (
	"fmt"
	"io"
)

// WriteFlightReport renders a brick-flight/v1 snapshot as the flightreport
// text format: the capture metadata, each rank's last-N-event timeline, and
// one causal chain per pending operation with its blamed edge:
//
//	flight artifact: reason=stall depth=1024 ranks=8
//	rank 5: 240 events (0 dropped), last 4:
//	  [   +1.204ms] wait-start step=2 peer=3 tag=41
//	  ...
//	pending precv-active src=3 dst=5 tag=41:
//	  rank 5  [   +1.102ms] recv-post step=2 peer=3 tag=41 ...
//	  ...
//	  blamed: rank 3 posted send tag=41 seq=3 to rank 5 but it was never delivered
//
// lastN bounds each rank's timeline (<= 0 shows every retained event).
func WriteFlightReport(w io.Writer, s *Snapshot, lastN int) error {
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
