package mpi

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/bricklab/brick/internal/fault"
)

// runAborted runs body in a fresh world and returns the AbortError it
// raised, or nil if the run completed.
func runAborted(t *testing.T, size int, inj *fault.Injector, verify bool, body func(*Comm)) (ae *AbortError) {
	t.Helper()
	w := NewWorld(size)
	w.SetFault(inj)
	w.SetVerifyCRC(verify)
	defer func() {
		if p := recover(); p != nil {
			var ok bool
			if ae, ok = p.(*AbortError); !ok {
				panic(p)
			}
		}
	}()
	w.Run(body)
	return nil
}

// TestVerifyCRC_DetectsCorruptSend: a corrupt-injected payload with
// receive-side CRC verification on aborts the world with a
// *CorruptionError naming the endpoints.
func TestVerifyCRC_DetectsCorruptSend(t *testing.T) {
	inj := fault.New(1).WithCorrupt(0, 1, 2)
	ae := runAborted(t, 2, inj, true, func(c *Comm) {
		buf := make([]float64, 16)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = float64(i)
			}
			c.Send(1, 5, buf)
		} else {
			c.Recv(0, 5, buf)
		}
	})
	if ae == nil {
		t.Fatal("corrupted exchange completed; want CRC abort")
	}
	var ce *CorruptionError
	if !errors.As(ae, &ce) {
		t.Fatalf("abort cause %v, want *CorruptionError", ae)
	}
	if ce.Src != 0 || ce.Dst != 1 || ce.Tag != 5 {
		t.Errorf("CorruptionError = %+v, want src=0 dst=1 tag=5", ce)
	}
	if !errors.Is(ae, ErrAborted) {
		t.Error("AbortError chain lost ErrAborted")
	}
}

// TestVerifyCRC_OffIsSilent: without verification the same injected flip
// delivers silently — the receiver sees corrupted data, the sender's
// buffer stays intact (the corruption models the wire, not the source).
func TestVerifyCRC_OffIsSilent(t *testing.T) {
	inj := fault.New(1).WithCorrupt(0, 1, 2)
	var got, sent [16]float64
	ae := runAborted(t, 2, inj, false, func(c *Comm) {
		buf := make([]float64, 16)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = float64(i + 1)
			}
			c.Send(1, 5, buf)
			copy(sent[:], buf)
		} else {
			c.Recv(0, 5, buf)
			copy(got[:], buf)
		}
	})
	if ae != nil {
		t.Fatalf("run aborted without verification: %v", ae)
	}
	for i := range sent {
		if sent[i] != float64(i+1) {
			t.Fatalf("sender buffer mutated at %d: %v", i, sent[i])
		}
	}
	same := true
	for i := range got {
		if got[i] != sent[i] {
			same = false
		}
	}
	if same {
		t.Fatal("receiver data identical to sender's; want silent corruption")
	}
}

// TestVerifyCRC_Deterministic: the same spec and seed flip the same bytes
// of the same message — the property checkpoint replay relies on.
func TestVerifyCRC_Deterministic(t *testing.T) {
	recvOnce := func() [8]float64 {
		var got [8]float64
		inj := fault.New(42).WithCorrupt(0, 1, 3)
		if ae := runAborted(t, 2, inj, false, func(c *Comm) {
			buf := make([]float64, 8)
			if c.Rank() == 0 {
				for i := range buf {
					buf[i] = float64(i)
				}
				c.Send(1, 9, buf)
			} else {
				c.Recv(0, 9, buf)
				copy(got[:], buf)
			}
		}); ae != nil {
			t.Fatalf("unexpected abort: %v", ae)
		}
		return got
	}
	a, b := recvOnce(), recvOnce()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("corruption not deterministic at elem %d: %x vs %x",
				i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// TestVerifyCRC_DetectsCorruptPersistent: corruption injected into a
// persistent channel's staged copy is caught at delivery too.
func TestVerifyCRC_DetectsCorruptPersistent(t *testing.T) {
	inj := fault.New(7).WithCorrupt(0, 1, 1)
	ae := runAborted(t, 2, inj, true, func(c *Comm) {
		buf := make([]float64, 32)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = float64(i) * 1.5
			}
			r := c.SendInit(1, 3, buf)
			defer r.Free()
			r.Start()
			r.Wait()
		} else {
			r := c.RecvInit(0, 3, buf)
			defer r.Free()
			r.Start()
			r.Wait()
		}
	})
	if ae == nil {
		t.Fatal("corrupted persistent exchange completed; want CRC abort")
	}
	var ce *CorruptionError
	if !errors.As(ae, &ce) {
		t.Fatalf("abort cause %v, want *CorruptionError", ae)
	}
	if ce.Src != 0 || ce.Dst != 1 || ce.Tag != 3 {
		t.Errorf("CorruptionError = %+v, want src=0 dst=1 tag=3", ce)
	}
}

// TestCRCFloatsMatchesWords: the one-pass CRC over a payload's bytes
// equals the word-at-a-time oracle on random payloads of every length up
// to 64 words, NaN bit patterns (quiet and signalling, either sign, random
// payload) included.
func TestCRCFloatsMatchesWords(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for n := 0; n <= 64; n++ {
		for rep := 0; rep < 8; rep++ {
			data := make([]float64, n)
			for i := range data {
				bits := r.Uint64()
				if r.IntN(3) == 0 {
					bits |= 0x7ff << 52 // a NaN, or an Inf where the mantissa is zero
				}
				data[i] = math.Float64frombits(bits)
			}
			if got, want := crcFloats(data), crcWords(data); got != want {
				t.Fatalf("%d words: crcFloats %#x, word-at-a-time %#x", n, got, want)
			}
		}
	}
}

// BenchmarkCRCFloats times the CRC of a 64 KiB payload, the size of a
// brick exchange message, through crcFloats and the word-at-a-time oracle.
func BenchmarkCRCFloats(b *testing.B) {
	data := make([]float64, 8192)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	for _, c := range []struct {
		name string
		crc  func([]float64) uint32
	}{{"bytes", crcFloats}, {"words", crcWords}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(data)))
			for range b.N {
				c.crc(data)
			}
		})
	}
}
