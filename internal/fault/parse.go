package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse compiles a fault spec into an Injector. The grammar is a
// comma-separated list of clauses; each clause is a kind followed by
// colon-separated key=value fields:
//
//	delay:rank=*:mean=200us[:jitter=0.5]   per-send delay, ±jitter fraction
//	stall:rank=0:nth=5:dur=2s              one-shot stall before send #5
//	panic:rank=1:step=3                    panic rank 1 at step 3
//	mapfail:rank=2[:step=4]                degrade MemMap (alloc time, or step 4)
//	allocfail:rank=2                       fail plan compile on rank 2
//	corrupt:rank=1:nth=3[:flips=2]         flip bytes of rank 1's 3rd send in flight
//	kill:rank=3[:nth=2]                    SIGKILL the rank's process at its 2nd send
//	exit:rank=3:code=7[:nth=2]             exit the rank's process with status 7
//	netdrop:rank=0:nth=4                   drop the rank's 4th outbound frame (tcp)
//	netdup:rank=0:nth=4                    duplicate the rank's 4th outbound frame (tcp)
//	netdelay:rank=*:mean=1ms[:jitter=0.5]  per-frame delay, ±jitter fraction (tcp)
//	netpartition:rank=0:peer=1:nth=3[:dur=100ms]  sever the 0→1 link before frame 3 (tcp)
//
// The net clauses count the rank's outbound tcp data frames: its one-shot
// messages, to any rank, and its persistent spans to other ranks. A rank's
// persistent channels to itself move in memory on every transport, so they
// have no frames and spend no ordinal.
//
// rank accepts a non-negative integer or * (every rank); kill and exit
// require a concrete rank — killing every worker leaves nothing to
// recover. Durations use Go syntax (200us, 1ms, 2s). An empty spec yields
// a nil injector: injection fully disabled, hooks cost one nil check.
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	in.spec = spec
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := in.parseClause(clause); err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
	}
	if !in.Enabled() {
		return nil, fmt.Errorf("fault: spec %q holds no clauses", spec)
	}
	return in, nil
}

// MustParse is Parse for tests and tables of known-good specs.
func MustParse(spec string, seed int64) *Injector {
	in, err := Parse(spec, seed)
	if err != nil {
		panic(err)
	}
	return in
}

// fields parses the key=value fields after the kind, rejecting duplicates
// and unknown keys (allowed lists what the kind accepts).
func fields(parts []string, allowed ...string) (map[string]string, error) {
	out := map[string]string{}
	for _, p := range parts {
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("field %q is not key=value", p)
		}
		ok = false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown field %q (accepts %s)", k, strings.Join(allowed, ", "))
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("duplicate field %q", k)
		}
		out[k] = v
	}
	return out, nil
}

func parseRank(v string) (int, error) {
	if v == "" || v == "*" {
		return AnyRank, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad rank %q (non-negative integer or *)", v)
	}
	return n, nil
}

func parseDur(v, field string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad %s %q (positive Go duration)", field, v)
	}
	return d, nil
}

func (in *Injector) parseClause(clause string) error {
	parts := strings.Split(clause, ":")
	kind, rest := Kind(parts[0]), parts[1:]
	switch kind {
	case KindDelay:
		f, err := fields(rest, "rank", "mean", "jitter")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		if f["mean"] == "" {
			return fmt.Errorf("delay needs mean=<duration>")
		}
		mean, err := parseDur(f["mean"], "mean")
		if err != nil {
			return err
		}
		jitter := 0.0
		if v := f["jitter"]; v != "" {
			jitter, err = strconv.ParseFloat(v, 64)
			if err != nil || jitter < 0 || jitter > 1 {
				return fmt.Errorf("bad jitter %q (fraction in [0,1])", v)
			}
		}
		in.WithDelay(rank, mean, jitter)
	case KindStall:
		f, err := fields(rest, "rank", "nth", "dur")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		nth := int64(1)
		if v := f["nth"]; v != "" {
			nth, err = strconv.ParseInt(v, 10, 64)
			if err != nil || nth < 1 {
				return fmt.Errorf("bad nth %q (1-based send index)", v)
			}
		}
		if f["dur"] == "" {
			return fmt.Errorf("stall needs dur=<duration>")
		}
		dur, err := parseDur(f["dur"], "dur")
		if err != nil {
			return err
		}
		in.WithStall(rank, nth, dur)
	case KindPanic:
		f, err := fields(rest, "rank", "step")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		step := 0
		if v := f["step"]; v != "" {
			step, err = strconv.Atoi(v)
			if err != nil || step < 0 {
				return fmt.Errorf("bad step %q (non-negative integer)", v)
			}
		}
		in.WithPanic(rank, step)
	case KindMapFail:
		f, err := fields(rest, "rank", "step")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		step := -1 // at allocation
		if v := f["step"]; v != "" {
			step, err = strconv.Atoi(v)
			if err != nil || step < 0 {
				return fmt.Errorf("bad step %q (non-negative integer)", v)
			}
		}
		in.WithMapFail(rank, step)
	case KindAllocFail:
		f, err := fields(rest, "rank")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		in.WithAllocFail(rank)
	case KindCorrupt:
		f, err := fields(rest, "rank", "nth", "flips")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		nth := int64(1)
		if v := f["nth"]; v != "" {
			nth, err = strconv.ParseInt(v, 10, 64)
			if err != nil || nth < 1 {
				return fmt.Errorf("bad nth %q (1-based send index)", v)
			}
		}
		flips := 1
		if v := f["flips"]; v != "" {
			flips, err = strconv.Atoi(v)
			if err != nil || flips < 1 {
				return fmt.Errorf("bad flips %q (positive byte count)", v)
			}
		}
		in.WithCorrupt(rank, nth, flips)
	case KindNetDrop, KindNetDup:
		f, err := fields(rest, "rank", "nth")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		nth := int64(1)
		if v := f["nth"]; v != "" {
			nth, err = strconv.ParseInt(v, 10, 64)
			if err != nil || nth < 1 {
				return fmt.Errorf("bad nth %q (1-based frame index)", v)
			}
		}
		if kind == KindNetDrop {
			in.WithNetDrop(rank, nth)
		} else {
			in.WithNetDup(rank, nth)
		}
	case KindNetDelay:
		f, err := fields(rest, "rank", "mean", "jitter")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		if f["mean"] == "" {
			return fmt.Errorf("netdelay needs mean=<duration>")
		}
		mean, err := parseDur(f["mean"], "mean")
		if err != nil {
			return err
		}
		jitter := 0.0
		if v := f["jitter"]; v != "" {
			jitter, err = strconv.ParseFloat(v, 64)
			if err != nil || jitter < 0 || jitter > 1 {
				return fmt.Errorf("bad jitter %q (fraction in [0,1])", v)
			}
		}
		in.WithNetDelay(rank, mean, jitter)
	case KindNetPartition:
		f, err := fields(rest, "rank", "peer", "nth", "dur")
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		peer, err := parseRank(f["peer"])
		if err != nil {
			return err
		}
		nth := int64(1)
		if v := f["nth"]; v != "" {
			nth, err = strconv.ParseInt(v, 10, 64)
			if err != nil || nth < 1 {
				return fmt.Errorf("bad nth %q (1-based frame index)", v)
			}
		}
		dur := 100 * time.Millisecond
		if v := f["dur"]; v != "" {
			dur, err = parseDur(v, "dur")
			if err != nil {
				return err
			}
		}
		in.WithNetPartition(rank, peer, nth, dur)
	case KindKill, KindExit:
		allowed := []string{"rank", "nth"}
		if kind == KindExit {
			allowed = append(allowed, "code")
		}
		f, err := fields(rest, allowed...)
		if err != nil {
			return err
		}
		rank, err := parseRank(f["rank"])
		if err != nil {
			return err
		}
		if rank == AnyRank {
			return fmt.Errorf("%s needs a concrete rank (rank=* would kill every worker)", kind)
		}
		nth := int64(1)
		if v := f["nth"]; v != "" {
			nth, err = strconv.ParseInt(v, 10, 64)
			if err != nil || nth < 1 {
				return fmt.Errorf("bad nth %q (1-based send index)", v)
			}
		}
		if kind == KindKill {
			in.WithKill(rank, nth)
			return nil
		}
		if f["code"] == "" {
			return fmt.Errorf("exit needs code=<nonzero status>")
		}
		code, err := strconv.Atoi(f["code"])
		if err != nil || code < 1 || code > 255 {
			return fmt.Errorf("bad code %q (exit status in [1,255])", f["code"])
		}
		in.WithExit(rank, nth, code)
	default:
		return fmt.Errorf("unknown kind %q (delay, stall, panic, mapfail, allocfail, corrupt, kill, exit, netdrop, netdup, netdelay, netpartition)", parts[0])
	}
	return nil
}
