package flight

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// stallSnapshot builds a deterministic capture of a canonical stall: rank
// 3 posted its send to rank 5 (tag 41, seq 3), which never arrived; rank 5
// sits in Wait on the receive. A second, healthy exchange (rank 0 → rank
// 1) exercises the cross-ring seq jump.
func stallSnapshot() *Snapshot {
	return &Snapshot{
		Reason: "stall",
		Detail: "mpi: watchdog abort: stall: 2 pending ops in world of 8 (no progress for 250ms)",
		Depth:  1024,
		Pending: []PendingRef{
			{Kind: "precv-active", Src: 3, Dst: 5, Tag: 41},
		},
		Ranks: []RankLog{
			{Rank: 0, Total: 3, Events: []Event{
				{Nanos: 1_000_000, Kind: KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 1_100_000, Kind: KindSendPost, Step: 2, Peer: 1, Tag: 17, Part: -1, Seq: 3, Bytes: 256},
				{Nanos: 1_150_000, Kind: KindPhase, Step: 2, Peer: -1, Tag: -1, Part: PhaseInterior},
			}},
			{Rank: 1, Total: 4, Events: []Event{
				{Nanos: 1_000_500, Kind: KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 1_050_000, Kind: KindRecvPost, Step: 2, Peer: 0, Tag: 17, Part: -1, Bytes: 256},
				{Nanos: 1_200_000, Kind: KindDeliver, Step: 2, Peer: 0, Tag: 17, Part: -1, Seq: 3, Bytes: 256},
				{Nanos: 1_250_000, Kind: KindWaitStart, Step: 2, Peer: 0, Tag: 17, Part: -1},
			}},
			{Rank: 3, Total: 2, Events: []Event{
				{Nanos: 1_001_000, Kind: KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 1_010_000, Kind: KindSendPost, Step: 2, Peer: 5, Tag: 41, Part: -1, Seq: 3, Bytes: 1024},
			}},
			{Rank: 5, Total: 3, Events: []Event{
				{Nanos: 1_002_000, Kind: KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 1_015_000, Kind: KindRecvPost, Step: 2, Peer: 3, Tag: 41, Part: -1, Bytes: 1024},
				{Nanos: 1_045_000, Kind: KindWaitStart, Step: 2, Peer: 3, Tag: 41, Part: -1},
			}},
		},
	}
}

// TestCausalChains: the backward walk finds each pending op's terminal
// event, hops rings at seq-stamped deliveries, and blames the exact edge
// that never fired.
func TestCausalChains(t *testing.T) {
	chains := CausalChains(stallSnapshot())
	if len(chains) != 1 {
		t.Fatalf("%d chains, want 1 (one per pending op)", len(chains))
	}
	recv := chains[0]
	last := recv.Links[len(recv.Links)-1]
	if last.Rank != 5 || last.Event.Kind != KindRecvPost {
		t.Fatalf("precv-active terminal link = %+v, want rank 5's recv-post", last)
	}
	wantBlame := "rank 3 posted send tag=41 seq=3 to rank 5 but it was never delivered"
	if recv.Blame != wantBlame {
		t.Errorf("blame = %q,\nwant    %q", recv.Blame, wantBlame)
	}
}

// TestCausalChainCrossRankHop: a chain whose terminal rank's history passes
// through a seq-stamped delivery hops to the sender's ring.
func TestCausalChainCrossRankHop(t *testing.T) {
	s := &Snapshot{
		Pending: []PendingRef{{Kind: "recv-posted", Src: 0, Dst: 1, Tag: 99}},
		Ranks: []RankLog{
			{Rank: 0, Events: []Event{
				{Nanos: 100, Kind: KindPhase, Peer: -1, Tag: -1, Part: PhaseSurface},
				{Nanos: 200, Kind: KindSendPost, Peer: 1, Tag: 17, Part: -1, Seq: 2, Bytes: 64},
			}},
			{Rank: 1, Events: []Event{
				{Nanos: 300, Kind: KindDeliver, Peer: 0, Tag: 17, Part: -1, Seq: 2, Bytes: 64},
				{Nanos: 400, Kind: KindRecvPost, Peer: 0, Tag: 99, Part: -1, Bytes: 64},
			}},
		},
	}
	chains := CausalChains(s)
	if len(chains) != 1 {
		t.Fatalf("%d chains, want 1", len(chains))
	}
	links := chains[0].Links
	if len(links) != 4 {
		t.Fatalf("chain has %d links, want 4 (phase, send-post, deliver, recv-post): %+v", len(links), links)
	}
	if links[0].Rank != 0 || links[1].Rank != 0 || links[2].Rank != 1 || links[3].Rank != 1 {
		t.Fatalf("chain ranks = %+v, want [0 0 1 1]", links)
	}
	if !links[1].Cross {
		t.Errorf("send-post link not marked as a cross-ring hop: %+v", links[1])
	}
	if chains[0].Blame != "rank 0 never posted a send tag=99 to rank 1" {
		t.Errorf("blame = %q", chains[0].Blame)
	}
}

// TestCausalChainUnpairedPersistent: a plan whose two sides disagree on
// the tag leaves a SendInit and a RecvInit unpaired, each Started. Both
// pending ops get their Start as the terminal event and a blame naming
// the side that never registered its half.
func TestCausalChainUnpairedPersistent(t *testing.T) {
	s := &Snapshot{
		Pending: []PendingRef{
			{Kind: PendPrecvUnpaired, Src: 0, Dst: 1, Tag: 8},
			{Kind: PendPsendUnpaired, Src: 0, Dst: 1, Tag: 7},
		},
		Ranks: []RankLog{
			{Rank: 0, Events: []Event{
				{Nanos: 100, Kind: KindSendPost, Peer: 1, Tag: 7, Part: -1, Seq: 1, Bytes: 32},
				{Nanos: 150, Kind: KindWaitStart, Peer: 1, Tag: 7, Part: -1},
			}},
			{Rank: 1, Events: []Event{
				{Nanos: 120, Kind: KindRecvPost, Peer: 0, Tag: 8, Part: -1, Bytes: 32},
				{Nanos: 160, Kind: KindWaitStart, Peer: 0, Tag: 8, Part: -1},
			}},
		},
	}
	chains := CausalChains(s)
	if len(chains) != 2 {
		t.Fatalf("%d chains, want 2", len(chains))
	}
	want := []struct {
		rank  int
		kind  Kind
		blame string
	}{
		{1, KindRecvPost, "rank 0 never posted a send tag=8 to rank 1"},
		{0, KindSendPost, "rank 1 never posted a matching receive for tag=7 from rank 0"},
	}
	for i, ch := range chains {
		if len(ch.Links) == 0 {
			t.Fatalf("%s chain has no terminal event", ch.Pending.Kind)
		}
		last := ch.Links[len(ch.Links)-1]
		if last.Rank != want[i].rank || last.Event.Kind != want[i].kind {
			t.Errorf("%s terminal link = %+v, want rank %d kind %v", ch.Pending.Kind, last, want[i].rank, want[i].kind)
		}
		if ch.Blame != want[i].blame {
			t.Errorf("%s blame = %q, want %q", ch.Pending.Kind, ch.Blame, want[i].blame)
		}
	}
}

// TestWriteFlightReportGolden freezes the flightreport text format.
// Regenerate with: go test ./internal/flight/ -run Golden -update
func TestWriteFlightReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFlightReport(&buf, stallSnapshot(), 4); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	path := filepath.Join("testdata", "flightreport.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("flightreport format drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
