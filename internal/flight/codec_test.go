package flight

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Reason: "stall",
		Detail: "mpi: watchdog: no exchange progress for 250ms",
		Depth:  1024,
		Pending: []PendingRef{
			{Kind: "psend-active", Src: 3, Dst: 5, Tag: 41},
			{Kind: "recv-posted", Src: 1, Dst: 0, Tag: 17},
		},
		Ranks: []RankLog{
			{Rank: 0, Total: 7, Dropped: 2, Events: []Event{
				{Nanos: 1000, Kind: KindStep, Step: 0, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 2000, Kind: KindSendPost, Step: 0, Peer: 1, Tag: 17, Part: -1, Seq: 1, Bytes: 512},
			}},
			{Rank: 1, Total: 1, Dropped: 0, Events: []Event{
				{Nanos: 1500, Kind: KindRecvPost, Step: 0, Peer: 0, Tag: 17, Part: -1, Bytes: 512},
			}},
			{Rank: 2, Total: 0, Dropped: 0, Events: nil},
		},
	}
}

// TestCodecRoundTrip: Decode inverts Encode field-for-field, including
// negative sentinel fields and empty rings.
func TestCodecRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	back, err := Decode(s.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.Reason != s.Reason || back.Detail != s.Detail || back.Depth != s.Depth {
		t.Fatalf("metadata mismatch: %+v", back)
	}
	if !reflect.DeepEqual(back.Pending, s.Pending) {
		t.Fatalf("pending mismatch: %+v vs %+v", back.Pending, s.Pending)
	}
	if len(back.Ranks) != len(s.Ranks) {
		t.Fatalf("rank count %d, want %d", len(back.Ranks), len(s.Ranks))
	}
	for i := range s.Ranks {
		want, got := s.Ranks[i], back.Ranks[i]
		if got.Rank != want.Rank || got.Total != want.Total || got.Dropped != want.Dropped {
			t.Fatalf("rank %d header mismatch: %+v vs %+v", i, got, want)
		}
		if len(got.Events) != len(want.Events) {
			t.Fatalf("rank %d event count %d, want %d", i, len(got.Events), len(want.Events))
		}
		for j := range want.Events {
			if got.Events[j] != want.Events[j] {
				t.Fatalf("rank %d event %d = %+v, want %+v", i, j, got.Events[j], want.Events[j])
			}
		}
	}
}

// TestCodecRejectsTruncation: every strict prefix of a valid artifact is
// rejected — a torn write can never decode as a shorter valid capture.
func TestCodecRejectsTruncation(t *testing.T) {
	data := sampleSnapshot().Encode()
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(data))
		}
	}
}

// TestCodecRejectsCorruption: flipping any single byte breaks the CRC (or
// the magic) and the artifact is rejected.
func TestCodecRejectsCorruption(t *testing.T) {
	data := sampleSnapshot().Encode()
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte %d flipped but artifact still decoded", i)
		}
	}
}

// TestCodecRejectsTrailingBytes: extra bytes after the payload fail the CRC
// check rather than being silently ignored.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	data := append(sampleSnapshot().Encode(), 0, 0, 0, 0)
	if _, err := Decode(data); err == nil {
		t.Fatal("artifact with trailing bytes decoded successfully")
	}
}

// TestCodecRejectsBadMagic: another format's preamble is rejected before
// any parsing.
func TestCodecRejectsBadMagic(t *testing.T) {
	data := sampleSnapshot().Encode()
	copy(data, "brick-wrong!/v1\n")
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic error = %v", err)
	}
}

// TestWriteReadFile: the tmp+rename file round trip, and that no .tmp file
// survives a successful write.
func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.bin")
	s := sampleSnapshot()
	if err := s.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if m, _ := filepath.Glob(path + ".tmp"); len(m) != 0 {
		t.Fatalf("tmp file left behind: %v", m)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if back.Reason != "stall" || len(back.Ranks) != 3 {
		t.Fatalf("round-tripped snapshot = %+v", back)
	}
}

// TestSnapshotCapture: Recorder.Snapshot captures per-ring totals, drop
// counts, and oldest-first events.
func TestSnapshotCapture(t *testing.T) {
	rec := New(2, 4)
	r0 := rec.Rank(0)
	for i := 0; i < 6; i++ {
		r0.Record(KindStep, -1, -1, int32(i), 0, 0)
	}
	rec.Rank(1).Send(0, 9, 128)
	s := rec.Snapshot("abort", "boom", []PendingRef{{Kind: "recv-posted", Src: 1, Dst: 0, Tag: 9}})
	if s.Reason != "abort" || s.Detail != "boom" || s.Depth != 4 || len(s.Ranks) != 2 {
		t.Fatalf("snapshot metadata = %+v", s)
	}
	if s.Ranks[0].Total != 6 || s.Ranks[0].Dropped != 2 || len(s.Ranks[0].Events) != 4 {
		t.Fatalf("rank 0 log = %+v", s.Ranks[0])
	}
	if s.Ranks[0].Events[0].Part != 2 {
		t.Fatalf("rank 0 oldest retained event = %+v, want Part=2", s.Ranks[0].Events[0])
	}
	if s.Ranks[1].Total != 1 || s.Ranks[1].Events[0].Kind != KindSendPost {
		t.Fatalf("rank 1 log = %+v", s.Ranks[1])
	}
}
