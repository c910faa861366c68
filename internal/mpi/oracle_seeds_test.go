package mpi

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A committed oracle seed is only a generator seed: what it replays is
// whatever program the generator builds from it today. TestOracleSeedPrograms
// renders the program of every committed seed and compares it with a golden
// listing under testdata/seedprograms, so a change to a generator fails here,
// naming the seed, instead of silently replaying a different program. After
// a deliberate generator change, regenerate the listings with -update and
// check the seeds still exercise what their names say.
func TestOracleSeedPrograms(t *testing.T) {
	for _, c := range []struct {
		fuzz   string
		render func(seed int64) string
	}{
		{"FuzzCollectiveOracle", func(seed int64) string { return genOracleProgram(seed, oracleSize(seed)).listing() }},
		{"FuzzPersistentOracle", func(seed int64) string { return genPersProgram(seed, oracleSize(seed)).listing() }},
	} {
		seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", c.fuzz, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(seeds) == 0 {
			t.Errorf("%s: no committed seeds", c.fuzz)
		}
		for _, path := range seeds {
			seed, err := readSeed(path)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			got := fmt.Sprintf("seed %d size %d\n%s", seed, oracleSize(seed), c.render(seed))
			golden := filepath.Join("testdata", "seedprograms", c.fuzz, filepath.Base(path)+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Errorf("%s seed %s: %v (run with -update to create)", c.fuzz, filepath.Base(path), err)
				continue
			}
			if got != string(want) {
				t.Errorf("%s seed %s (%d) now generates a different program than %s:\n%s",
					c.fuzz, filepath.Base(path), seed, golden, firstDiff(got, string(want)))
			}
		}
	}
}

var seedLine = regexp.MustCompile(`^int64\((-?\d+)\)$`)

// readSeed parses a corpus file of a fuzz target taking one int64.
func readSeed(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return 0, fmt.Errorf("not a one-value corpus file")
	}
	m := seedLine.FindStringSubmatch(strings.TrimSpace(lines[1]))
	if m == nil {
		return 0, fmt.Errorf("value %q is not an int64", lines[1])
	}
	return strconv.ParseInt(m[1], 10, 64)
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n  now:    %s\n  golden: %s", i+1, gl, wl)
		}
	}
	return "identical lines"
}

// listing renders the program one operation per line, then every batch.
// Floats print in their shortest round-trip form, so equal listings mean
// equal programs.
func (p *oracleProgram) listing() string {
	var b strings.Builder
	names := [...]string{orBarrier: "barrier", orAllreduce: "allreduce", orGather: "gather", orPost: "post", orWait: "wait"}
	for i, op := range p.ops {
		fmt.Fprintf(&b, "op %d %s", i, names[op.kind])
		switch op.kind {
		case orAllreduce:
			fmt.Fprintf(&b, " op=%d in=%v", op.op, op.in)
		case orGather:
			fmt.Fprintf(&b, " in=%v", op.in)
		case orPost, orWait:
			fmt.Fprintf(&b, " batch=%d", op.batch)
		}
		b.WriteByte('\n')
	}
	for i, bt := range p.batches {
		fmt.Fprintf(&b, "batch %d\n", i)
		for j, m := range bt.msgs {
			fmt.Fprintf(&b, "  msg %d %d->%d tag=%d data=%v\n", j, m.src, m.dst, m.tag, m.data)
		}
		for r := range bt.reqs {
			fmt.Fprintf(&b, "  rank %d reqs=%+v wait=%v\n", r, bt.reqs[r], bt.wait[r])
		}
	}
	return b.String()
}

// listing renders the persistent program: channels, receive buffers' first
// contents, each rank's steps, then every cycle's per-rank schedule. The
// empty bounds, pready and calls fields stay from the generator's
// partitioned channels, so listings of committed seeds still compare byte
// for byte.
func (p *persProgram) listing() string {
	var b strings.Builder
	for i, c := range p.chans {
		fmt.Fprintf(&b, "chan %d %v init=%v\n", i, c, p.init[i])
	}
	for r, steps := range p.steps {
		for i, s := range steps {
			fmt.Fprintf(&b, "rank %d step %d {kind:%d ch:%d send:%v ghost:%v cycle:%d}\n",
				r, i, s.kind, s.ch, s.send, s.ghost, s.cycle)
		}
	}
	for i, c := range p.cycles {
		fmt.Fprintf(&b, "cycle %d\n", i)
		if c.coll != nil {
			fmt.Fprintf(&b, "  coll %+v\n", *c.coll)
		}
		for r := range c.start {
			fmt.Fprintf(&b, "  rank %d rebind=%+v start=%+v pready=[] calls=[] wait=%+v\n",
				r, c.rebind[r], c.start[r], c.wait[r])
		}
	}
	return b.String()
}

// String renders a channel as the listing always has.
func (ch persChan) String() string {
	return fmt.Sprintf("{src:%d dst:%d tag:%d n:%d capacity:%d bounds:[] active:%v data:%v}",
		ch.src, ch.dst, ch.tag, ch.n, ch.capacity, ch.active, ch.data)
}
