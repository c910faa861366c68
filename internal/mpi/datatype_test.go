package mpi

import (
	"testing"
	"testing/quick"
)

func iota64(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i)
	}
	return s
}

// Contiguous selects N consecutive elements starting at Offset: the
// trivial selection TestSubarray1DMatchesContiguous and
// BenchmarkContiguousPack hold Subarray against.
type Contiguous struct {
	Offset, N int
}

// Count returns the number of selected elements.
func (t Contiguous) Count() int { return t.N }

// Pack copies the selection into dst.
func (t Contiguous) Pack(base, dst []float64) {
	copy(dst[:t.N], base[t.Offset:t.Offset+t.N])
}

// Unpack copies src back into the selection.
func (t Contiguous) Unpack(src, base []float64) {
	copy(base[t.Offset:t.Offset+t.N], src[:t.N])
}

func TestContiguous(t *testing.T) {
	base := iota64(10)
	dt := Contiguous{Offset: 3, N: 4}
	if dt.Count() != 4 {
		t.Fatal("count")
	}
	dst := make([]float64, 4)
	dt.Pack(base, dst)
	if dst[0] != 3 || dst[3] != 6 {
		t.Errorf("pack = %v", dst)
	}
	out := make([]float64, 10)
	dt.Unpack(dst, out)
	if out[3] != 3 || out[6] != 6 || out[0] != 0 || out[7] != 0 {
		t.Errorf("unpack = %v", out)
	}
}

func TestSubarray3D(t *testing.T) {
	// 4x4x4 array, select the 2x2x2 block at (1,1,1).
	sizes := []int{4, 4, 4}
	base := iota64(64)
	dt := NewSubarray(sizes, []int{2, 2, 2}, []int{1, 1, 1})
	if dt.Count() != 8 {
		t.Fatal("count")
	}
	dst := make([]float64, 8)
	dt.Pack(base, dst)
	// Element (k,j,i) has value 16k+4j+i.
	want := []float64{21, 22, 25, 26, 37, 38, 41, 42}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("pack = %v, want %v", dst, want)
		}
	}
	out := make([]float64, 64)
	dt.Unpack(dst, out)
	if out[21] != 21 || out[42] != 42 || out[0] != 0 {
		t.Errorf("unpack wrong: %v...", out[:8])
	}
}

func TestSubarray1DMatchesContiguous(t *testing.T) {
	base := iota64(16)
	sa := NewSubarray([]int{16}, []int{5}, []int{4})
	co := Contiguous{Offset: 4, N: 5}
	a, b := make([]float64, 5), make([]float64, 5)
	sa.Pack(base, a)
	co.Pack(base, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("subarray %v vs contiguous %v", a, b)
		}
	}
}

func TestSubarrayPackUnpackRoundTrip(t *testing.T) {
	// Property: for random valid 2D subarrays, Unpack(Pack(x)) restores
	// exactly the selected region and nothing else.
	f := func(rw, rh, sw, sh, sx, sy uint8) bool {
		W := int(rw)%6 + 2
		H := int(rh)%6 + 2
		w := int(sw)%W + 1
		h := int(sh)%H + 1
		x := int(sx) % (W - w + 1)
		y := int(sy) % (H - h + 1)
		dt := NewSubarray([]int{H, W}, []int{h, w}, []int{y, x})
		base := iota64(W * H)
		buf := make([]float64, dt.Count())
		dt.Pack(base, buf)
		out := make([]float64, W*H)
		for i := range out {
			out[i] = -1
		}
		dt.Unpack(buf, out)
		for j := 0; j < H; j++ {
			for i := 0; i < W; i++ {
				inside := j >= y && j < y+h && i >= x && i < x+w
				got := out[j*W+i]
				if inside && got != base[j*W+i] {
					return false
				}
				if !inside && got != -1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewSubarrayValidation(t *testing.T) {
	bad := [][3][]int{
		{{}, {}, {}},
		{{4}, {4, 4}, {0}},
		{{4}, {5}, {0}},
		{{4}, {2}, {3}},
		{{4}, {0}, {0}},
		{{0}, {0}, {0}},
		{{4}, {2}, {-1}},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSubarray(%v) did not panic", c)
				}
			}()
			NewSubarray(c[0], c[1], c[2])
		}()
	}
}

func BenchmarkSubarrayPack(b *testing.B) {
	// The interpretive engine cost that makes MPI_Types slow.
	dt := NewSubarray([]int{64, 64, 64}, []int{8, 64, 64}, []int{0, 0, 0})
	base := iota64(64 * 64 * 64)
	dst := make([]float64, dt.Count())
	b.SetBytes(int64(8 * dt.Count()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.Pack(base, dst)
	}
}

func BenchmarkContiguousPack(b *testing.B) {
	dt := Contiguous{Offset: 0, N: 8 * 64 * 64}
	base := iota64(dt.N)
	dst := make([]float64, dt.N)
	b.SetBytes(int64(8 * dt.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt.Pack(base, dst)
	}
}

func BenchmarkPingPong(b *testing.B) {
	for _, size := range []int{8, 512, 65536} {
		b.Run(map[int]string{8: "64B", 512: "4KiB", 65536: "512KiB"}[size], func(b *testing.B) {
			w := NewWorld(2)
			b.SetBytes(int64(16 * size))
			b.ResetTimer()
			w.Run(func(c *Comm) {
				buf := make([]float64, size)
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						c.Send(1, 0, buf)
						c.Recv(1, 1, buf)
					} else {
						c.Recv(0, 0, buf)
						c.Send(0, 1, buf)
					}
				}
			})
		})
	}
}
