package stencil

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/bricklab/brick/internal/grid"
)

// fuzzBits draws coefficient and source bits. One draw in rare is a value
// where summation order shows — ±0, ±Inf, a subnormal, or a NaN (quiet or
// signalling, either sign, random payload) — and the others are normal
// numbers of either sign within 2^±32, so a sum stays finite unless a
// special value reaches it. Each input picks its own rare, from 2 (nearly
// every sum NaN) to 1024 (nearly none).
type fuzzBits struct {
	r    *rand.Rand
	rare int
}

func (g fuzzBits) next() float64 {
	sign := g.r.Uint64() & (1 << 63)
	mant := g.r.Uint64()&(1<<52-1) | 1 // nonzero: a NaN, not an Inf
	if g.r.IntN(g.rare) != 0 {
		return math.Float64frombits(sign | uint64(1023-32+g.r.IntN(65))<<52 | mant)
	}
	switch g.r.IntN(5) {
	case 0:
		return math.Float64frombits(sign)
	case 1:
		return math.Float64frombits(sign | 0x7ff<<52)
	case 2:
		return math.Float64frombits(sign | mant)
	default:
		return math.Float64frombits(sign | 0x7ff<<52 | mant)
	}
}

// fuzzSentinel fills every output element before a body runs; an element
// no body should write must keep exactly these bits.
var fuzzSentinel = math.Float64frombits(0x7ff8_dead_beef_0001)

// FuzzTapRows checks the vector tap rows — AVX2, and AVX-512 where the
// host has it — against the Go tapRow bit for bit on random tables of
// 1–128 taps and random special-value bits (see sameBits for the one
// exception):
//
//   - the brick path: tapRows over 1–4 rows of a 12³ block, stored through
//     a random lane mask, against tapRow over the masked lanes; the lanes
//     outside the mask keep their bits;
//   - the array path: applyGridRows over rows 1–40 wide, 1–4 rows in each
//     of one or two planes, on the Go and the vector body; every element
//     of the destination grid compares.
//
// Each input runs once per vector body the host has, on the same bits.
func FuzzTapRows(f *testing.F) {
	if !hostAVX2 {
		f.Skip("no AVX2 body on this host")
	}
	f.Fuzz(func(t *testing.T, seed uint64, ntaps, nrows, nwidth, lo, span uint8) {
		vectorBodies(t, func(string) {
			r := rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
			g := fuzzBits{r, 2 << r.IntN(10)}
			taps, rows, width := 1+int(ntaps)%128, 1+int(nrows)%4, 1+int(nwidth)%40
			lane0 := int(lo) % 8
			fuzzBlockRows(t, g, taps, rows, lane0, lane0+1+int(span)%(8-lane0))
			fuzzGridRows(t, g, taps, rows, width)
		})
	})
}

// sameBits reports whether got matches want: the same bits, or both NaN
// where want is not fuzzSentinel. Which payload an operation on two NaNs
// returns is not a property of the Go source: amd64 returns the first
// operand's, and the compiler picks which operand comes first by register
// allocation. tapRow's eight-lane loop multiplies source first and adds
// accumulator first on lanes 0–6 but product first on lane 7, whose
// accumulator it spills, and the coverage-instrumented build -fuzz runs
// orders them differently again. Every other bit pattern — signed zeros,
// infinities, subnormals, and a single NaN's payload — must match exactly.
func sameBits(got, want float64) bool {
	if math.Float64bits(got) == math.Float64bits(want) {
		return true
	}
	return got != got && want != want && math.Float64bits(want) != math.Float64bits(fuzzSentinel)
}

// fuzzBlockRows runs one tapRows call over a 12³ block: taps anywhere the
// rows' eight lanes stay inside the block, relative to a random anchor, so
// the offsets take either sign.
func fuzzBlockRows(t *testing.T, g fuzzBits, taps, rows, lo, hi int) {
	r := g.r
	const n = 12
	block := make([]float64, n*n*n)
	for i := range block {
		block[i] = g.next()
	}
	at := r.IntN(n-8+1) + r.IntN(n-rows+1)*n + r.IntN(n)*n*n
	pts := make([]Point, taps)
	for p := range pts {
		// the tap's block position of lane 0, row 0, minus the anchor's
		x, y, z := r.IntN(n-8+1), r.IntN(n-rows+1), r.IntN(n)
		pts[p] = Point{C: g.next(), DI: x + y*n + z*n*n - at}
	}
	tab := tapTable(nil, nil, pts, 0, 0)
	got, want := make([]float64, 4*8), make([]float64, 4*8)
	for i := range got {
		got[i], want[i] = fuzzSentinel, fuzzSentinel
	}
	tapRows(got, 8, block, at, n, rows, &tab, lo, hi)
	for q := range rows {
		tapRow(want[q*8+lo:q*8+hi], block, at+q*n+lo, &tab)
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("block: %d taps, %d rows, lanes [%d,%d): row %d lane %d is %#x, tapRow %#x",
				taps, rows, lo, hi, i/8, i%8, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// fuzzGridRows applies a random table of radius 2 to a whole grid on both
// bodies.
func fuzzGridRows(t *testing.T, g fuzzBits, taps, rows, width int) {
	r := g.r
	st := Stencil{Name: "fuzz", Radius: 2, Points: make([]Point, taps)}
	for p := range st.Points {
		st.Points[p] = Point{r.IntN(5) - 2, r.IntN(5) - 2, r.IntN(5) - 2, g.next()}
	}
	if _, ok := star7Weights(st); ok {
		return // the 7-point bodies are not what this fuzzes
	}
	dom := [3]int{width, rows, 1 + r.IntN(2)}
	src := grid.New(dom, st.Radius)
	for i := range src.Data {
		src.Data[i] = g.next()
	}
	lo, hi := [3]int{2, 2, 2}, [3]int{2 + dom[0], 2 + dom[1], 2 + dom[2]}
	var out [2]*grid.Grid
	vector := useAVX2
	defer func() { useAVX2 = vector }()
	for b := range out {
		useAVX2 = b == 1
		out[b] = grid.New(dom, st.Radius)
		for i := range out[b].Data {
			out[b].Data[i] = fuzzSentinel
		}
		applyGridRows(out[b], src, st, lo, hi, 0, dom[1]*dom[2])
	}
	for i, w := range out[0].Data {
		if v := out[1].Data[i]; !sameBits(v, w) {
			t.Fatalf("grid: %d taps, domain %v: element %d is %#x, Go body %#x",
				taps, dom, i, math.Float64bits(v), math.Float64bits(w))
		}
	}
}
