package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// goldenSnap is a fixed snapshot whose buffers straddle the encoder's
// chunk size: one exactly a chunk, one a chunk and a tail, one shorter
// than a chunk, and an empty one.
func goldenSnap() *Snapshot {
	fill := func(n int, seed float64) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(seed+float64(i)) * math.Exp2(float64(i%61-30))
		}
		return b
	}
	bufs := [][]float64{fill(encodeChunk/8, 1), fill(encodeChunk/8+1001, 2), fill(17, 3), {}}
	bufs[2][0], bufs[2][1], bufs[2][2] = math.Inf(-1), math.Copysign(0, -1), math.NaN()
	return &Snapshot{Rank: 5, Step: 40, Cur: 1, Degraded: "forced", Digest: "97b07b536cd3c9ed+0123456789abcdef",
		Bufs: bufs}
}

// goldenSHA256 is the SHA-256 of goldenSnap's brick-ckpt/v1 encoding. The
// format is frozen: epoch files written by any earlier encoder must still
// decode, so an encoder change that moves a byte fails here.
const goldenSHA256 = "9aedb2519a184f300705bf75237437a716410b81e76876b33e692ef96fafa2ee"

func TestEncodeGolden(t *testing.T) {
	blob := goldenSnap().Encode()
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != goldenSHA256 {
		t.Fatalf("encoding of the golden snapshot has SHA-256 %s, want %s (%d bytes)", got, goldenSHA256, len(blob))
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range goldenSnap().Bufs {
		for j, v := range buf {
			if math.Float64bits(back.Bufs[i][j]) != math.Float64bits(v) {
				t.Fatalf("buffer %d float %d = %v after the round trip, want %v", i, j, back.Bufs[i][j], v)
			}
		}
	}
}
