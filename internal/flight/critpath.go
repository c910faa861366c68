package flight

// This file turns a metrics snapshot and, optionally, the run's flight
// artifact into per-rank critical-path reports: where each rank's time
// went (calc/pack/call/wait shares), which phase dominates, and the longest
// back-to-back chain of events on the rank's timeline. cmd/flightreport
// -metrics renders these reports.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/metrics"
)

// PhaseStat is one phase's share of a rank's measured time.
type PhaseStat struct {
	Phase   string
	Seconds float64 // total across timed steps
	Share   float64 // fraction of the rank's total, in [0, 1]
	P50     float64
	P99     float64
	Max     float64
	Count   uint64
}

// RankReport is the per-rank critical-path summary.
type RankReport struct {
	Impl     string
	Rank     string // rank id, or "all" for the cross-rank aggregate
	Total    float64
	Phases   []PhaseStat // sorted by Seconds descending
	Chain    []string    // longest back-to-back chain of timeline steps
	ChainDur float64     // total seconds of that chain (0 without an artifact)
}

// Dominant returns the largest phase, or a zero PhaseStat with none.
func (r RankReport) Dominant() PhaseStat {
	if len(r.Phases) == 0 {
		return PhaseStat{}
	}
	return r.Phases[0]
}

// phaseOrder is the canonical within-step ordering used for the fallback
// chain of a row with no recorded timeline: post calls, pack copies,
// completion waits, then compute.
var phaseOrder = []string{"call", "pack", "wait", "calc"}

// Analyze builds per-rank reports from a metrics snapshot, reading each
// rank's longest chain off the run's flight artifact fs. The chain, like the
// phase shares, covers only the timed steps: the events from the rank's
// first timed step mark on (timedStart). A row with no
// recorded timeline — every row when fs is nil, and the rank="all"
// aggregate always — gets the phase-share fallback chain instead. Reports
// are sorted by impl, then rank (numeric, with "all" last).
func Analyze(snap *metrics.Snapshot, fs *Snapshot) []RankReport {
	type key struct{ impl, rank string }
	byRank := map[key][]PhaseStat{}
	steps := map[int]uint64{} // per rank: its timed steps, the phase histograms' count
	for _, h := range snap.Histograms {
		if h.Name != metrics.PhaseSeconds {
			continue
		}
		k := key{h.Labels["impl"], h.Labels["rank"]}
		byRank[k] = append(byRank[k], PhaseStat{
			Phase:   h.Labels["phase"],
			Seconds: h.Sum,
			P50:     h.P50,
			P99:     h.P99,
			Max:     h.Max,
			Count:   h.Count,
		})
		if rk, err := strconv.Atoi(k.rank); err == nil {
			steps[rk] = max(steps[rk], h.Count)
		}
	}

	chains := chainByRank(ToTrace(fs), timedStart(fs, steps))

	var out []RankReport
	for k, phases := range byRank {
		rep := RankReport{Impl: k.impl, Rank: k.rank}
		for _, p := range phases {
			rep.Total += p.Seconds
		}
		for i := range phases {
			if rep.Total > 0 {
				phases[i].Share = phases[i].Seconds / rep.Total
			}
		}
		sort.Slice(phases, func(i, j int) bool {
			if phases[i].Seconds != phases[j].Seconds {
				return phases[i].Seconds > phases[j].Seconds
			}
			return phases[i].Phase < phases[j].Phase
		})
		rep.Phases = phases
		if rk, err := strconv.Atoi(k.rank); err == nil {
			if ch, ok := chains[rk]; ok {
				rep.Chain, rep.ChainDur = ch.steps, ch.dur.Seconds()
			}
		}
		if rep.Chain == nil {
			rep.Chain = fallbackChain(phases)
		}
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Impl != out[j].Impl {
			return out[i].Impl < out[j].Impl
		}
		return rankSortKey(out[i].Rank) < rankSortKey(out[j].Rank)
	})
	return out
}

// rankSortKey orders numeric ranks ascending with "all" after them.
func rankSortKey(rank string) int {
	if n, err := strconv.Atoi(rank); err == nil {
		return n
	}
	return 1 << 30
}

// fallbackChain derives the step chain from phase shares alone: the phases
// with a non-negligible share (>1%), in canonical step order.
func fallbackChain(phases []PhaseStat) []string {
	share := map[string]float64{}
	for _, p := range phases {
		share[p.Phase] = p.Share
	}
	var chain []string
	for _, ph := range phaseOrder {
		if share[ph] > 0.01 {
			chain = append(chain, ph)
		}
	}
	return chain
}

type chain struct {
	steps []string
	dur   time.Duration
}

// timedStart returns, per rank of fs, when its first timed step began: the
// time of its KindStep mark for that step. The timed steps are the last
// steps[rank] absolute steps the rank entered, steps[rank] being its phase
// histogram count; warmup and setup come before them. A rank whose ring no
// longer holds that mark kept only timed events and gets no entry, so its
// chain may start anywhere.
func timedStart(fs *Snapshot, steps map[int]uint64) map[int]time.Duration {
	out := map[int]time.Duration{}
	if fs == nil {
		return out
	}
	for _, rl := range fs.Ranks {
		last := int64(-1)
		for _, e := range rl.Events {
			if e.Kind == KindStep {
				last = max(last, int64(e.Step))
			}
		}
		first := last - int64(steps[rl.Rank]) + 1
		for _, e := range rl.Events {
			if e.Kind == KindStep && int64(e.Step) == first {
				out[rl.Rank] = time.Duration(e.Nanos)
				break
			}
		}
	}
	return out
}

// chainByRank finds, per rank, the longest-by-duration chain of
// back-to-back events starting at or after from[rank]: consecutive events
// on the rank's timeline where each next event starts before the previous
// one has been over for 10% of its duration (tolerating scheduler jitter
// between phases). Consecutive events of the same kind collapse to one
// step.
func chainByRank(events []TraceEvent, from map[int]time.Duration) map[int]chain {
	perRank := map[int][]TraceEvent{}
	for _, e := range events {
		if e.Start >= from[e.Rank] {
			perRank[e.Rank] = append(perRank[e.Rank], e)
		}
	}
	out := map[int]chain{}
	for rank, evs := range perRank {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		var best, cur chain
		var curEnd time.Duration
		flush := func() {
			if cur.dur > best.dur {
				best = cur
			}
			cur = chain{}
		}
		for _, e := range evs {
			gapLimit := e.Dur / 10
			if gapLimit < 100*time.Microsecond {
				gapLimit = 100 * time.Microsecond
			}
			if len(cur.steps) > 0 && e.Start > curEnd+gapLimit {
				flush()
			}
			step := string(e.Kind)
			if len(cur.steps) == 0 || cur.steps[len(cur.steps)-1] != step {
				cur.steps = append(cur.steps, step)
			}
			cur.dur += e.Dur
			if end := e.Start + e.Dur; end > curEnd {
				curEnd = end
			}
		}
		flush()
		if len(best.steps) > 0 {
			out[rank] = best
		}
	}
	return out
}

// WriteReport renders the reports as the critical-path text format:
//
//	impl=Layout
//	  rank 3: total 41.2ms — wait 41.0% · calc 38.7% · call 20.3%
//	          p99 wait 1.9ms, p99 calc 1.2ms
//	          longest chain: call→calc→wait→calc (4.1ms)
func WriteReport(w io.Writer, reports []RankReport) error {
	lastImpl := ""
	for _, r := range reports {
		if r.Impl != lastImpl {
			if _, err := fmt.Fprintf(w, "impl=%s\n", r.Impl); err != nil {
				return err
			}
			lastImpl = r.Impl
		}
		var shares []string
		for _, p := range r.Phases {
			if p.Seconds == 0 {
				continue
			}
			shares = append(shares, fmt.Sprintf("%s %.1f%%", p.Phase, 100*p.Share))
		}
		label := "rank " + r.Rank
		if r.Rank == "all" {
			label = "all ranks"
		}
		if _, err := fmt.Fprintf(w, "  %s: total %s — %s\n",
			label, fmtSeconds(r.Total), strings.Join(shares, " · ")); err != nil {
			return err
		}
		var p99s []string
		for _, p := range r.Phases {
			if p.Seconds == 0 {
				continue
			}
			p99s = append(p99s, fmt.Sprintf("p99 %s %s", p.Phase, fmtSeconds(p.P99)))
		}
		if len(p99s) > 0 {
			if _, err := fmt.Fprintf(w, "          %s\n", strings.Join(p99s, ", ")); err != nil {
				return err
			}
		}
		if len(r.Chain) > 0 {
			suffix := ""
			if r.ChainDur > 0 {
				suffix = fmt.Sprintf(" (%s)", fmtSeconds(r.ChainDur))
			}
			if _, err := fmt.Fprintf(w, "          longest chain: %s%s\n",
				strings.Join(r.Chain, "→"), suffix); err != nil {
				return err
			}
		}
	}
	return nil
}

// fmtSeconds renders a duration in engineering units.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
