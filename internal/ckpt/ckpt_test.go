package ckpt

import (
	"math"
	"testing"
)

func sampleSnap(rank, step int) *Snapshot {
	return &Snapshot{
		Rank: rank, Step: step, Cur: 1,
		Degraded: "map-failed",
		Digest:   "fnv:deadbeef",
		Bufs: [][]float64{
			{1.5, -2.25, math.Inf(1), 0, math.Copysign(0, -1)},
			{math.Pi, math.SmallestNonzeroFloat64},
		},
	}
}

// TestEncodeDecodeRoundTrip: every field and every payload bit survives the
// brick-ckpt/v1 round trip, including non-finite and signed-zero floats.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := sampleSnap(3, 14)
	got, err := Decode(in.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Rank != in.Rank || got.Step != in.Step || got.Cur != in.Cur ||
		got.Degraded != in.Degraded || got.Digest != in.Digest {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, in)
	}
	if len(got.Bufs) != len(in.Bufs) {
		t.Fatalf("%d buffers, want %d", len(got.Bufs), len(in.Bufs))
	}
	for i, buf := range in.Bufs {
		for j, v := range buf {
			if math.Float64bits(got.Bufs[i][j]) != math.Float64bits(v) {
				t.Fatalf("buf %d elem %d: %x, want %x", i, j,
					math.Float64bits(got.Bufs[i][j]), math.Float64bits(v))
			}
		}
	}
}

// TestDecodeRejectsCorruption: any flipped bit — payload, header, or
// magic — is caught before a single field is trusted.
func TestDecodeRejectsCorruption(t *testing.T) {
	blob := sampleSnap(0, 2).Encode()
	for _, off := range []int{1, len(magic) + 2, len(blob) / 2, len(blob) - 6} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Errorf("flip at offset %d decoded cleanly; want error", off)
		}
	}
	if _, err := Decode(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob decoded cleanly; want error")
	}
	if _, err := Decode([]byte("not a checkpoint")); err == nil {
		t.Error("garbage decoded cleanly; want error")
	}
}
