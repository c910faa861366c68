package flight

import (
	"strings"
	"sync"
	"testing"
)

// TestRingWraparound: a ring past capacity retains the newest `depth`
// events, counts the overwritten ones as dropped, and keeps Total at the
// ever-recorded count.
func TestRingWraparound(t *testing.T) {
	r := New(1, 8).Rank(0)
	for i := 0; i < 20; i++ {
		r.Record(KindStep, -1, -1, int32(i), 0, 0)
	}
	if got := r.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if want := int32(12 + i); e.Part != want {
			t.Fatalf("event %d Part = %d, want %d (oldest-first order)", i, e.Part, want)
		}
	}
}

// TestRingTail: Tail returns the newest n events, oldest of them first, and
// the whole retained set when n exceeds it.
func TestRingTail(t *testing.T) {
	r := New(1, 16).Rank(0)
	for i := 0; i < 5; i++ {
		r.Record(KindStep, -1, -1, int32(i), 0, 0)
	}
	tail := r.Tail(2)
	if len(tail) != 2 || tail[0].Part != 3 || tail[1].Part != 4 {
		t.Fatalf("Tail(2) = %v", tail)
	}
	if got := len(r.Tail(100)); got != 5 {
		t.Fatalf("Tail(100) returned %d events, want 5", got)
	}
}

// TestSendSequencing: Send stamps an independent, monotonically increasing
// sequence per (peer, tag) stream and records it on the event.
func TestSendSequencing(t *testing.T) {
	r := New(1, 64).Rank(0)
	if s := r.Send(1, 7, 8); s != 1 {
		t.Fatalf("first seq of (1,7) = %d, want 1", s)
	}
	if s := r.Send(1, 7, 8); s != 2 {
		t.Fatalf("second seq of (1,7) = %d, want 2", s)
	}
	if s := r.Send(2, 7, 8); s != 1 {
		t.Fatalf("first seq of (2,7) = %d, want 1 (streams are independent)", s)
	}
	if s := r.Send(1, 8, 8); s != 1 {
		t.Fatalf("first seq of (1,8) = %d, want 1 (streams are independent)", s)
	}
	evs := r.Events()
	if evs[1].Seq != 2 || evs[1].Kind != KindSendPost {
		t.Fatalf("second event = %+v, want send-post seq=2", evs[1])
	}
}

// TestDrainDeltas: Drain returns per-call deltas so every event lands in
// exactly one drain (the metrics-mirroring contract across recovery epochs).
func TestDrainDeltas(t *testing.T) {
	r := New(1, 4).Rank(0)
	for i := 0; i < 6; i++ {
		r.Record(KindStep, -1, -1, -1, 0, 0)
	}
	total, dropped := r.Drain()
	if total != 6 || dropped != 2 {
		t.Fatalf("first Drain = (%d, %d), want (6, 2)", total, dropped)
	}
	r.Record(KindStep, -1, -1, -1, 0, 0)
	total, dropped = r.Drain()
	if total != 1 || dropped != 1 {
		t.Fatalf("second Drain = (%d, %d), want (1, 1)", total, dropped)
	}
	total, dropped = r.Drain()
	if total != 0 || dropped != 0 {
		t.Fatalf("idle Drain = (%d, %d), want (0, 0)", total, dropped)
	}
}

// TestNilRingSafety: every method of a nil ring (the disabled path) is a
// no-op, and a nil recorder hands out nil rings for any rank.
func TestNilRingSafety(t *testing.T) {
	var g *Ring
	g.SetStep(3)
	g.StepMark(4)
	g.Phase(PhaseInterior)
	g.Record(KindAbort, -1, -1, -1, 0, 0)
	g.RecvPost(0, 0, 8)
	g.Deliver(0, 0, 8, 1)
	if s := g.Send(0, 0, 8); s != 0 {
		t.Fatalf("nil ring Send = %d, want 0", s)
	}
	if g.Total() != 0 || g.Dropped() != 0 || g.Events() != nil || len(g.Tail(4)) != 0 {
		t.Fatal("nil ring reported state")
	}
	var rec *Recorder
	if rec.Rank(0) != nil || rec.Ranks() != 0 || rec.Depth() != 0 || rec.Snapshot("x", "", nil) != nil {
		t.Fatal("nil recorder reported state")
	}
	live := New(2, 8)
	if live.Rank(-1) != nil || live.Rank(2) != nil {
		t.Fatal("out-of-range rank returned a ring (watchdog rank -1 must be a no-op)")
	}
}

// TestConcurrentRecording: many goroutines hammering one ring under -race;
// totals must balance and retained events stay within capacity.
func TestConcurrentRecording(t *testing.T) {
	const writers, perWriter = 8, 500
	r := New(1, 256).Rank(0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					r.Send(int32(w), 5, 64)
				case 1:
					r.Record(KindPhase, -1, -1, PhaseInterior, 0, 0)
				default:
					r.StepMark(i)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	if got := r.Dropped(); got != writers*perWriter-256 {
		t.Fatalf("Dropped = %d, want %d", got, writers*perWriter-256)
	}
	if got := len(r.Events()); got != 256 {
		t.Fatalf("retained %d events, want 256", got)
	}
}

// TestEventRendering: the textual forms consumed by stall-report tails and
// flightreport are stable and carry the identifying fields.
func TestEventRendering(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindSendPost, Step: 2, Peer: 3, Tag: 41, Part: -1, Seq: 7, Bytes: 512},
			"send-post step=2 peer=3 tag=41 seq=7 bytes=512"},
		{Event{Kind: KindRecvPost, Step: 0, Peer: -1, Tag: -1, Part: -1},
			"recv-post step=0 peer=any tag=any"},
		{Event{Kind: 9, Step: 4, Peer: -1, Tag: -1, Part: 7},
			"kind(9) step=4"}, // a retired kind of an old artifact
		{Event{Kind: KindPhase, Step: 3, Peer: -1, Tag: -1, Part: PhaseSurface},
			"phase step=3 phase=surface"},
		{Event{Kind: KindAbort, Step: -1, Peer: -1, Tag: -1, Part: -1},
			"abort"},
	}
	for _, c := range cases {
		if got := c.e.Compact(); got != c.want {
			t.Errorf("Compact() = %q, want %q", got, c.want)
		}
		if got := c.e.String(); !strings.HasSuffix(got, c.want) || !strings.HasPrefix(got, "[") {
			t.Errorf("String() = %q, want timestamped %q", got, c.want)
		}
	}
}

// TestRecordAllocs: the record hot paths are allocation-free once a send
// stream's counter exists — the property make bench-allocs gates.
func TestRecordAllocs(t *testing.T) {
	r := New(1, 64).Rank(0)
	r.Send(1, 7, 8) // create the stream counter outside the measured loop
	if n := testing.AllocsPerRun(100, func() {
		r.Record(KindPhase, -1, -1, PhaseSurface, 0, 0)
	}); n != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Send(1, 7, 8)
	}); n != 0 {
		t.Fatalf("Send allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.StepMark(5)
	}); n != 0 {
		t.Fatalf("StepMark allocates %.1f per op, want 0", n)
	}
	var nilRing *Ring
	if n := testing.AllocsPerRun(100, func() {
		nilRing.Record(KindPhase, -1, -1, PhaseSurface, 0, 0)
		nilRing.Send(1, 7, 8)
	}); n != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", n)
	}
}
