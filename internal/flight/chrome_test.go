package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestToTracePairsIntervals: wait start/done pairs become intervals, keyed
// by (peer, tag); a start with no done survives as an "(unfinished)"
// marker — the smoking gun a stall export must keep visible.
func TestToTracePairsIntervals(t *testing.T) {
	s := &Snapshot{Ranks: []RankLog{{Rank: 2, Events: []Event{
		{Nanos: 1000, Kind: KindWaitStart, Peer: 3, Tag: 41, Part: -1},
		{Nanos: 5000, Kind: KindWaitDone, Peer: 3, Tag: 41, Part: -1},
		{Nanos: 5500, Kind: KindPhase, Peer: -1, Tag: -1, Part: PhaseSurface},
		{Nanos: 6000, Kind: KindWaitStart, Peer: 4, Tag: 7, Part: -1},
		{Nanos: 9000, Kind: KindWaitDone, Peer: 4, Tag: 7, Part: -1},
		{Nanos: 9500, Kind: KindWaitStart, Peer: 4, Tag: 8, Part: -1},
		{Nanos: 9900, Kind: KindSendPost, Peer: 1, Tag: 17, Part: -1, Seq: 4, Bytes: 64},
	}}}}
	evs := ToTrace(s)
	byName := map[string]TraceEvent{}
	for _, e := range evs {
		byName[e.Name] = e
		if e.Rank != 2 {
			t.Fatalf("event %q on rank %d, want 2", e.Name, e.Rank)
		}
	}
	w, ok := byName["wait peer=3 tag=41"]
	if !ok || w.Kind != TraceWait || w.Dur != 4000 {
		t.Fatalf("wait interval = %+v (present=%v)", w, ok)
	}
	w, ok = byName["wait peer=4 tag=7"]
	if !ok || w.Kind != TraceWait || w.Dur != 3000 {
		t.Fatalf("second wait interval = %+v (present=%v)", w, ok)
	}
	if _, ok := byName["wait peer=4 tag=8 (unfinished)"]; !ok {
		t.Fatalf("unfinished wait on tag 8 not exported; names = %v", names(evs))
	}
	if ph, ok := byName["phase surface"]; !ok || ph.Kind != "phase" || ph.Dur != 0 {
		t.Fatalf("phase marker = %+v (present=%v); names = %v", ph, ok, names(evs))
	}
	send, ok := byName["send->1 tag=17 seq=4"]
	if !ok || send.Kind != TraceSend {
		t.Fatalf("send marker = %+v (present=%v); names = %v", send, ok, names(evs))
	}
}

// TestToTraceDeterministic: one snapshot always exports to the same Chrome
// bytes, even with several unfinished starts left open (a stall artifact's
// usual shape) — including two opened at the same instant.
func TestToTraceDeterministic(t *testing.T) {
	s := &Snapshot{Ranks: []RankLog{{Rank: 0, Events: []Event{
		{Nanos: 3000, Kind: KindWaitStart, Peer: 5, Tag: 9, Part: -1},
		{Nanos: 1000, Kind: KindWaitStart, Peer: 2, Tag: 4, Part: -1},
		{Nanos: 2000, Kind: KindWaitStart, Peer: 1, Tag: 7, Part: -1},
		{Nanos: 2000, Kind: KindWaitStart, Peer: 1, Tag: 3, Part: -1},
		{Nanos: 2000, Kind: KindWaitStart, Peer: 2, Tag: 2, Part: -1},
		{Nanos: 2500, Kind: KindPhase, Peer: -1, Tag: -1, Part: PhaseInterior},
		{Nanos: 4000, Kind: KindStep, Step: 1, Peer: -1, Tag: -1, Part: -1},
	}}}}
	export := func() string {
		var b bytes.Buffer
		if err := WriteChromeTrace(&b, ToTrace(s)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := export()
	for i := 0; i < 20; i++ {
		if got := export(); got != want {
			t.Fatalf("export %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
	var got []string
	for _, e := range ToTrace(s) {
		if strings.HasSuffix(e.Name, "(unfinished)") {
			got = append(got, e.Name)
		}
	}
	order := []string{
		"wait peer=2 tag=4 (unfinished)",
		"wait peer=1 tag=3 (unfinished)",
		"wait peer=1 tag=7 (unfinished)",
		"wait peer=2 tag=2 (unfinished)",
		"wait peer=5 tag=9 (unfinished)",
	}
	if strings.Join(got, "|") != strings.Join(order, "|") {
		t.Fatalf("unfinished markers = %q, want %q", got, order)
	}
}

func names(evs []TraceEvent) []string {
	var out []string
	for _, e := range evs {
		out = append(out, e.Name)
	}
	return out
}

// sampleTrace is a send interval on rank 3 and a peerless step interval on
// rank 0, in start order.
func sampleTrace() []TraceEvent {
	return []TraceEvent{
		{Rank: 0, Kind: "step", Name: "step 4",
			Start: 10 * time.Microsecond, Dur: 90 * time.Microsecond, Peer: -1},
		{Rank: 3, Kind: TraceSend, Name: "send->0 tag=5",
			Start: 100 * time.Microsecond, Dur: 50 * time.Microsecond, Bytes: 4096, Peer: 0},
	}
}

func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != 2 {
		t.Fatalf("entries = %d", len(parsed))
	}
	if parsed[0]["name"] != "step 4" || parsed[0]["ph"] != "X" {
		t.Errorf("first entry = %v", parsed[0])
	}
	if parsed[1]["tid"].(float64) != 3 {
		t.Errorf("tid = %v", parsed[1]["tid"])
	}
	args := parsed[1]["args"].(map[string]any)
	if args["bytes"].(float64) != 4096 || args["peer"].(float64) != 0 {
		t.Errorf("args = %v", args)
	}
	// The step has no bytes and peer -1: args omitted.
	if _, ok := parsed[0]["args"]; ok {
		t.Error("step event should omit args")
	}
}

// failAfterWriter fails (with a short-write count, as io.Writer requires)
// once limit bytes have been written.
type failAfterWriter struct {
	limit   int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		if n < 0 {
			n = 0
		}
		w.written += n
		return n, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestChromeTraceWriteErrorPropagation: a writer failing mid-stream (short
// write) must surface as an error, never as a silently truncated trace.
func TestChromeTraceWriteErrorPropagation(t *testing.T) {
	var evs []TraceEvent
	for i := 0; i < 50; i++ {
		evs = append(evs, TraceEvent{Rank: i % 4, Kind: TraceSend, Name: "send",
			Start: time.Duration(i) * time.Microsecond, Dur: time.Microsecond, Bytes: 64, Peer: 0})
	}
	var full bytes.Buffer
	if err := WriteChromeTrace(&full, evs); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 10, full.Len() / 2, full.Len() - 1} {
		if err := WriteChromeTrace(&failAfterWriter{limit: limit}, evs); err == nil {
			t.Errorf("limit %d: no error from failing writer", limit)
		}
	}
}

// TestChromeTraceRoundTrip: the export keeps every field of every event —
// tid is the rank, cat the kind, ts/dur the interval in microseconds, args
// the bytes and peer — so nothing but sub-microsecond precision is lost.
func TestChromeTraceRoundTrip(t *testing.T) {
	want := sampleTrace()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, want); err != nil {
		t.Fatal(err)
	}
	back := readChromeTrace(t, buf.Bytes())
	if len(back) != len(want) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(want))
	}
	for i := range back {
		if back[i] != want[i] {
			t.Errorf("event %d: got %+v want %+v", i, back[i], want[i])
		}
	}
}

// readChromeTrace parses a WriteChromeTrace export back into events: tid to
// rank, cat to kind, microseconds to durations.
func readChromeTrace(t *testing.T, b []byte) []TraceEvent {
	t.Helper()
	var ces []chromeEvent
	if err := json.Unmarshal(b, &ces); err != nil {
		t.Fatal(err)
	}
	out := make([]TraceEvent, 0, len(ces))
	for _, ce := range ces {
		e := TraceEvent{
			Rank: ce.Tid, Kind: TraceKind(ce.Cat), Name: ce.Name,
			Start: time.Duration(ce.Ts) * time.Microsecond,
			Dur:   time.Duration(ce.Dur) * time.Microsecond,
			Peer:  -1,
		}
		if b, ok := ce.Args["bytes"].(float64); ok {
			e.Bytes = int64(b)
		}
		if p, ok := ce.Args["peer"].(float64); ok {
			e.Peer = int(p)
		}
		out = append(out, e)
	}
	return out
}
