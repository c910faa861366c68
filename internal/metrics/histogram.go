package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// Histogram bucket layout: logarithmic base-2 buckets spanning one
// nanosecond-ish to ~17 minutes when observations are seconds (the unit is
// up to the caller; buckets are pure powers of two). Bucket i (1 <= i <=
// histBuckets-2) covers (2^(histMinExp+i-2), 2^(histMinExp+i-1)]; bucket 0
// is the underflow bucket (<= 2^(histMinExp-1), including zero and negative
// observations) and the last bucket is the overflow (+Inf) bucket.
const (
	histMinExp  = -30 // smallest finite upper bound is 2^-30 ≈ 0.93ns
	histMaxExp  = 10  // largest finite upper bound is 2^10 = 1024s
	histBuckets = histMaxExp - histMinExp + 3
)

// Histogram is a fixed-layout log2-bucketed distribution with streaming
// sum/min/max, built for latency and size observations. Observe is
// lock-free; quantiles are estimated by geometric interpolation inside the
// containing bucket and clamped to the exact observed [min, max]. All
// methods are safe for concurrent use and no-ops on a nil receiver.
type Histogram struct {
	name   string
	labels Labels

	counts  [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits; +Inf until first observation
	maxBits atomic.Uint64 // float64 bits; -Inf until first observation
}

// NewHistogram returns a histogram outside any registry: a distribution
// its owner keeps, merges and ships itself.
func NewHistogram() *Histogram { return newHistogram("", nil) }

func newHistogram(name string, labels Labels) *Histogram {
	h := &Histogram{name: name, labels: labels}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketUpper returns the inclusive upper bound of bucket i; the last
// bucket's bound is +Inf.
func bucketUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, histMinExp+i-1)
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if v <= bucketUpper(0) || math.IsNaN(v) {
		return 0
	}
	// v = frac × 2^exp with frac in [0.5, 1), so v ∈ (2^(exp-1), 2^exp]
	// modulo the frac==0.5 boundary, which Frexp maps to the lower bucket's
	// open end — nudge exact powers of two down into their closed bucket.
	_, exp := math.Frexp(v)
	if math.Ldexp(1, exp-1) == v {
		exp--
	}
	i := exp - histMinExp + 1
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.add(v, v, v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observation, or 0 with none.
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or 0 with none.
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts:
// it finds the bucket containing the target rank and interpolates linearly
// within the bucket's bounds, then clamps to the exact observed [min, max]
// so single-value and single-bucket distributions report exactly.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min() // exact endpoints: the extremes are tracked directly
	}
	if q >= 1 {
		return h.Max()
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum uint64
	est := h.Max()
	for i := 0; i < histBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= target {
			lo := 0.0
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			if math.IsInf(hi, 1) {
				hi = h.Max()
			}
			frac := (target - float64(cum)) / float64(n)
			est = lo + (hi-lo)*frac
			break
		}
		cum += n
	}
	if mn := h.Min(); est < mn {
		est = mn
	}
	if mx := h.Max(); est > mx {
		est = mx
	}
	return est
}

// buckets returns the non-cumulative per-bucket counts.
func (h *Histogram) buckets() [histBuckets]uint64 {
	var out [histBuckets]uint64
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Merge folds o's observations into h, as if each had been observed by h:
// the bucket counts, count, min and max exactly, the sum to rounding. A
// nil h or o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.Count() == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i].Add(o.counts[i].Load())
	}
	h.count.Add(o.Count())
	h.add(o.Sum(), o.Min(), o.Max())
}

// add folds a sum and an observed range into the streaming fields.
func (h *Histogram) add(sum, lo, hi float64) {
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= lo {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(lo)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= hi {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(hi)) {
			break
		}
	}
}

// histogramJSON is a histogram's wire form: its whole state, with the
// non-empty buckets named by their upper bound as in a Snapshot, so a
// decoded histogram merges and reports exactly like the original.
type histogramJSON struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// MarshalJSON encodes the histogram's state.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	w := histogramJSON{Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max()}
	for i, n := range h.buckets() {
		if n != 0 {
			w.Buckets = append(w.Buckets, Bucket{LE: formatLE(bucketUpper(i)), Count: n})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a histogram from its wire form. A bucket bound
// that is not one of the layout's, or bucket counts that overflow or do
// not add up to the count, is an error.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	var counts [histBuckets]uint64
	var total uint64
	for _, bk := range w.Buckets {
		i := histBuckets - 1
		if bk.LE != "+Inf" {
			v, err := strconv.ParseFloat(bk.LE, 64)
			if err != nil {
				return fmt.Errorf("metrics: histogram bucket bound %q: %w", bk.LE, err)
			}
			if i = bucketIndex(v); bucketUpper(i) != v {
				return fmt.Errorf("metrics: histogram bucket bound %q is not a bucket's", bk.LE)
			}
		}
		if total+bk.Count < total {
			return fmt.Errorf("metrics: histogram bucket counts overflow")
		}
		counts[i] += bk.Count
		total += bk.Count
	}
	if total != w.Count {
		return fmt.Errorf("metrics: histogram buckets hold %d observations, count says %d", total, w.Count)
	}
	for i, n := range counts {
		h.counts[i].Store(n)
	}
	h.count.Store(total)
	h.sumBits.Store(0)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	if total > 0 {
		h.add(w.Sum, w.Min, w.Max)
	}
	return nil
}
