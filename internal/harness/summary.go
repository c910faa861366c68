package harness

// This file holds the streaming summary statistics a Result reports, in the
// format used by the paper's artifact: [minimum, average, maximum]
// (σ: standard deviation) over per-timestep measurements.

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Summary accumulates observations with Welford's online algorithm, so a
// long run needs O(1) memory and the variance is numerically stable.
type Summary struct {
	n        int
	min, max float64
	mean, m2 float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddDuration records a duration observation in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Stddev returns the population standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Merge folds another summary into s, as if every observation of o had been
// added to s. Used to aggregate per-rank summaries.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	n1, n2 := float64(s.n), float64(o.n)
	delta := o.mean - s.mean
	tot := n1 + n2
	s.mean += delta * n2 / tot
	s.m2 += o.m2 + delta*delta*n1*n2/tot
	s.n += o.n
}

// Reset clears the summary for reuse.
func (s *Summary) Reset() { *s = Summary{} }

// summaryJSON is the wire form of a Summary: the full Welford state, so a
// decoded summary merges and extends exactly like the original. Worker
// processes ship per-rank summaries to the supervisor through it.
type summaryJSON struct {
	N    int     `json:"n"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// MarshalJSON encodes the summary's complete accumulator state.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{N: s.n, Min: s.min, Max: s.max, Mean: s.mean, M2: s.m2})
}

// UnmarshalJSON restores a summary from its wire form.
func (s *Summary) UnmarshalJSON(b []byte) error {
	var w summaryJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Summary{n: w.N, min: w.Min, max: w.Max, mean: w.Mean, m2: w.M2}
	return nil
}

// String formats the summary in the artifact's style:
// [min, avg, max] (σ: stddev), with values in engineering seconds.
func (s *Summary) String() string {
	return fmt.Sprintf("[%.3e, %.3e, %.3e] (σ: %.2e)", s.Min(), s.Mean(), s.Max(), s.Stddev())
}
