package ckpt

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// sealed appends the CRC-32C of body, so every fuzzed body gets past the
// checksum and reaches the header and payload parser.
func sealed(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
}

// FuzzDecode feeds hostile brick-ckpt/v1 bodies to Decode, which every
// restore runs on spill files read from disk. Decode must never panic, and
// a snapshot it accepts must come back unchanged, payload bits included,
// from Encode then Decode.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 15s ./internal/ckpt/
func FuzzDecode(f *testing.F) {
	valid := sampleSnap(3, 14).Encode()
	body := valid[:len(valid)-4]
	f.Add(body)
	for _, n := range []int{0, len(magic), len(magic) + 4, len(body) / 2, len(body) - 1} {
		f.Add(body[:n])
	}
	empty := (&Snapshot{}).Encode()
	f.Add(empty[:len(empty)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := Decode(sealed(body))
		if err != nil {
			return
		}
		back, err := Decode(s.Encode())
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if back.Rank != s.Rank || back.Step != s.Step || back.Cur != s.Cur ||
			back.Degraded != s.Degraded || back.Digest != s.Digest || len(back.Bufs) != len(s.Bufs) {
			t.Fatalf("snapshot %+v after Encode and Decode, want %+v", back, s)
		}
		for i, buf := range s.Bufs {
			if len(back.Bufs[i]) != len(buf) {
				t.Fatalf("buffer %d has %d floats after the round trip, want %d", i, len(back.Bufs[i]), len(buf))
			}
			for j, v := range buf {
				if math.Float64bits(back.Bufs[i][j]) != math.Float64bits(v) {
					t.Fatalf("buffer %d float %d = %v after the round trip, want %v", i, j, back.Bufs[i][j], v)
				}
			}
		}
	})
}
