package flight

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// seal replaces data's last four bytes with the CRC-32C of the rest, so a
// mutated artifact gets past the checksum and exercises the parser.
func seal(data []byte) []byte {
	body := data[:len(data)-4]
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
}

// artifact builds a sealed brick-flight/v1 artifact from a raw JSON header
// and record payload.
func artifact(header string, payload []byte) []byte {
	b := []byte(Magic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(header)))
	b = append(b, header...)
	b = append(b, payload...)
	return seal(append(b, 0, 0, 0, 0))
}

// checkDecode asserts the codec's fuzz property on one input: Decode never
// panics, and whatever it accepts re-encodes to bytes that decode to the
// same snapshot — a fixed point of Encode∘Decode.
func checkDecode(t *testing.T, data []byte) {
	s, err := Decode(data)
	if err != nil {
		return
	}
	enc := s.Encode()
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded artifact rejected: %v", err)
	}
	if !bytes.Equal(back.Encode(), enc) {
		t.Fatal("Encode(Decode(Encode(s))) differs from Encode(s)")
	}
	if len(back.Ranks) != len(s.Ranks) {
		t.Fatalf("rank count %d after round trip, want %d", len(back.Ranks), len(s.Ranks))
	}
	for i := range s.Ranks {
		if !reflect.DeepEqual(back.Ranks[i], s.Ranks[i]) {
			t.Fatalf("rank %d = %+v after round trip, want %+v", i, back.Ranks[i], s.Ranks[i])
		}
	}
}

// FuzzDecode feeds hostile bytes to the brick-flight/v1 decoder, which
// flightreport runs on artifacts read from disk. Each input is
// decoded as given and again with its CRC trailer re-sealed: the checksum
// rejects nearly every raw mutation before the header and records are
// parsed, so the sealed form is what reaches the parser.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 15s ./internal/flight/
func FuzzDecode(f *testing.F) {
	valid := sampleSnapshot().Encode()
	f.Add(valid)
	for _, n := range []int{0, len(Magic), len(Magic) + 8, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(Magic)+6] ^= 0x40
	f.Add(flipped)
	f.Add((&Snapshot{Reason: "abort"}).Encode())
	f.Add(append(append([]byte(nil), valid...), 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= 4 {
			checkDecode(t, seal(data))
		}
	})
}

// TestDecodeRejectsHugeCount: a header claiming more records than the
// payload holds is rejected even when count×record-size overflows int.
func TestDecodeRejectsHugeCount(t *testing.T) {
	for _, count := range []string{"-1", "2", "449920587163647601"} {
		data := artifact(`{"reason":"stall","depth":1,"ranks":[{"rank":0,"count":`+count+`}]}`, make([]byte, recSize))
		if _, err := Decode(data); err == nil {
			t.Errorf("count %s: artifact with one record decoded", count)
		}
	}
	if _, err := Decode(artifact(`{"reason":"stall","depth":1,"ranks":[{"rank":0,"count":1}]}`, make([]byte, recSize))); err != nil {
		t.Fatalf("well-formed one-record artifact rejected: %v", err)
	}
}
