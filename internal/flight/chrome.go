package flight

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// TraceKind is a Chrome-trace event category ("cat"). Analyze names the
// steps of a rank's longest chain after it.
type TraceKind string

// Trace kinds that differ from the flight Kind they come from; every other
// flight kind exports under its own name (Kind.String).
const (
	TraceSend TraceKind = "send"
	TraceRecv TraceKind = "recv"
	TraceWait TraceKind = "wait"
)

// TraceEvent is one timed interval (or, with Dur 0, one marker) on a rank's
// Chrome-trace timeline.
type TraceEvent struct {
	Rank  int
	Kind  TraceKind
	Name  string        // e.g. "send->3 tag=129 seq=4"
	Start time.Duration // offset from the recorder's epoch
	Dur   time.Duration
	Bytes int64
	Peer  int // peer rank for send/recv, -1 otherwise
}

// ToTrace converts a flight snapshot into timed trace events: the input of
// the critical-path chain analysis and of the Chrome export
// (chrome://tracing, Perfetto).
// Wait start/done pairs, keyed by (peer, tag), are fused into intervals;
// everything else becomes a zero-duration marker. A start whose done never
// happened is emitted as a marker named "...(unfinished)": in a stall
// artifact that marker is the smoking gun, so it must survive conversion.
// Unfinished markers follow each rank's other events, ordered by (Nanos,
// Peer, Tag), so one snapshot always exports to the same bytes.
func ToTrace(s *Snapshot) []TraceEvent {
	if s == nil {
		return nil
	}
	var out []TraceEvent
	for _, rl := range s.Ranks {
		type openKey struct{ peer, tag int32 }
		open := map[openKey]Event{}
		for _, e := range rl.Events {
			switch e.Kind {
			case KindWaitStart:
				open[openKey{e.Peer, e.Tag}] = e
			case KindWaitDone:
				k := openKey{e.Peer, e.Tag}
				if s0, ok := open[k]; ok {
					delete(open, k)
					out = append(out, interval(rl.Rank, TraceWait,
						fmt.Sprintf("wait peer=%d tag=%d", e.Peer, e.Tag), s0, e))
				} else {
					out = append(out, marker(rl.Rank, TraceWait, "wait-done", e))
				}
			default:
				out = append(out, marker(rl.Rank, pointKind(e.Kind), pointName(e), e))
			}
		}
		unfinished := make([]Event, 0, len(open))
		for _, s0 := range open {
			unfinished = append(unfinished, s0)
		}
		slices.SortFunc(unfinished, func(x, y Event) int {
			return cmp.Or(cmp.Compare(x.Nanos, y.Nanos), cmp.Compare(x.Peer, y.Peer), cmp.Compare(x.Tag, y.Tag))
		})
		for _, s0 := range unfinished {
			out = append(out, marker(rl.Rank, TraceWait, fmt.Sprintf("wait peer=%d tag=%d (unfinished)", s0.Peer, s0.Tag), s0))
		}
	}
	return out
}

func interval(rank int, kind TraceKind, name string, start, end Event) TraceEvent {
	return TraceEvent{
		Rank: rank, Kind: kind, Name: name,
		Start: time.Duration(start.Nanos), Dur: time.Duration(end.Nanos - start.Nanos),
		Bytes: end.Bytes, Peer: int(end.Peer),
	}
}

func marker(rank int, kind TraceKind, name string, e Event) TraceEvent {
	return TraceEvent{
		Rank: rank, Kind: kind, Name: name,
		Start: time.Duration(e.Nanos),
		Bytes: e.Bytes, Peer: int(e.Peer),
	}
}

func pointKind(k Kind) TraceKind {
	switch k {
	case KindSendPost:
		return TraceSend
	case KindRecvPost:
		return TraceRecv
	default:
		return TraceKind(k.String())
	}
}

func pointName(e Event) string {
	switch e.Kind {
	case KindSendPost:
		return fmt.Sprintf("send->%d tag=%d seq=%d", e.Peer, e.Tag, e.Seq)
	case KindRecvPost:
		return fmt.Sprintf("recv<-%d tag=%d", e.Peer, e.Tag)
	case KindDeliver:
		return fmt.Sprintf("deliver<-%d tag=%d seq=%d", e.Peer, e.Tag, e.Seq)
	case KindStep:
		return fmt.Sprintf("step %d", e.Step)
	case KindPhase:
		return "phase " + phaseName(e.Part)
	default:
		return e.Kind.String()
	}
}

// chromeEvent is the Chrome trace "complete event" (ph=X) JSON shape.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits events in the Chrome trace-event JSON array
// format (chrome://tracing, Perfetto): one row (tid) per rank. Events are
// streamed one per line rather than marshalled as one giant array, and
// every write's error — including short writes, which io.Writer reports as
// err != nil with n < len — is propagated, so a full disk or closed pipe
// cannot silently truncate the trace.
func WriteChromeTrace(w io.Writer, evs []TraceEvent) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  string(e.Kind),
			Ph:   "X",
			Ts:   float64(e.Start.Microseconds()),
			Dur:  float64(e.Dur.Microseconds()),
			Pid:  0,
			Tid:  e.Rank,
		}
		if e.Bytes > 0 || e.Peer >= 0 {
			ce.Args = map[string]any{}
			if e.Bytes > 0 {
				ce.Args["bytes"] = e.Bytes
			}
			if e.Peer >= 0 {
				ce.Args["peer"] = e.Peer
			}
		}
		line, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(evs)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(line, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
