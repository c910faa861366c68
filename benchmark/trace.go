package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span names: one per call into a layer's public function, plus the step
// that parents them.
const (
	spanStep = iota
	spanBarrier
	spanStart
	spanComplete
	spanApply
	numSpanNames
)

var spanNames = [numSpanNames]string{"replica.step", "mpi.Barrier", "exch.Start", "exch.Complete", "stencil.Apply"}

// span is one recorded interval: which call, when (ns since the tracer's
// origin), the span that caused it (index into the rank's span list, -1 for
// none) and the step it belongs to. Spans of one step share the step id.
type span struct {
	Name   int8  `json:"n"`
	Parent int32 `json:"p"`
	Step   int32 `json:"s"`
	Start  int64 `json:"b"`
	End    int64 `json:"e"`
}

// rankTrace records one rank's spans in memory. A nil *rankTrace is the
// tracing-off state: every method is a nil check, so the untraced replica
// runs the same code.
type rankTrace struct {
	OriginUnixNano int64  `json:"origin"`
	Spans          []span `json:"spans"`
	origin         time.Time
	cur            int32 // innermost open span, -1 outside any span
	step           int32
}

func newRankTrace(capacity int) *rankTrace {
	now := time.Now()
	return &rankTrace{OriginUnixNano: now.UnixNano(), origin: now, cur: -1,
		Spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one and returns its id.
func (t *rankTrace) begin(name int8) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.Spans))
	t.Spans = append(t.Spans, span{Name: name, Parent: t.cur, Step: t.step,
		Start: int64(time.Since(t.origin))})
	t.cur = id
	return id
}

// end closes the span begin returned.
func (t *rankTrace) end(id int32) {
	if t == nil {
		return
	}
	t.Spans[id].End = int64(time.Since(t.origin))
	t.cur = t.Spans[id].Parent
}

func (t *rankTrace) setStep(s int) {
	if t != nil {
		t.step = int32(s)
	}
}

// selfSeconds returns each span name's total self time: a span's duration
// minus the part its child spans cover.
func (t *rankTrace) selfSeconds() [numSpanNames]float64 {
	self := make([]int64, len(t.Spans))
	for i, s := range t.Spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	var out [numSpanNames]float64
	for i, s := range t.Spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// traceFileSteps bounds the steps written per rank: the 10000-step workload
// records 140k spans, which nobody reads and which would be a 15 MB file.
// Self times are always derived from every span in memory.
const traceFileSteps = 512

// writeChromeTrace writes the ranks' spans as Chrome trace-event JSON (load
// it in chrome://tracing or ui.perfetto.dev): one process per rank,
// complete ("X") events with microsecond timestamps on a common wall-clock
// axis, and the step id and parent span in args.
func writeChromeTrace(path string, ranks []*rankTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := ranks[0].OriginUnixNano
	for _, t := range ranks {
		if t.OriginUnixNano < base {
			base = t.OriginUnixNano
		}
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for r, t := range ranks {
		off := t.OriginUnixNano - base
		for i, s := range t.Spans {
			if s.Step >= traceFileSteps {
				break
			}
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":%d,"tid":0,"ts":%.3f,"dur":%.3f,"args":{"step":%d,"id":%d,"parent":%d}}`,
				spanNames[s.Name], r, float64(off+s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Step, i, s.Parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
