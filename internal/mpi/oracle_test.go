package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The collective oracle: seeded SPMD programs of Barrier, Allreduce, Gather
// and Bcast interleaved with batches of one-shot Isend/Irecv (duplicate
// tags, AnyTag receives, receives posted before the collectives that
// separate them from their waits), run on every transport and checked
// against a sequential model. Every buffer a rank receives must be
// Float64bits-equal to the model's, and no program may hang: the watchdog
// turns a stall into a failure.
//
// The model's one-shot matching is positional. For each (src, dst) pair the
// receiver posts its receives from src in the order src posts its sends to
// dst, and the i-th receive names the i-th message's tag or AnyTag, so MPI's
// ordering rules (non-overtaking sends, receives matched in post order)
// pair them index by index, whatever order the requests are waited in.

// Oracle operation kinds.
const (
	orBarrier = iota
	orAllreduce
	orGather
	orBcast
	orPost // post one batch's sends and receives
	orWait // wait for one batch's requests
)

type oracleMsg struct {
	src, dst, tag int
	data          []float64
}

// oracleReq is one posted request: a send of message msg, or a receive of
// it into a buffer of n elements with tag tag (the message's or AnyTag).
type oracleReq struct {
	send bool
	msg  int
	tag  int
	n    int
}

type oracleBatch struct {
	msgs []oracleMsg
	reqs [][]oracleReq // per rank, in post order
	wait [][]int       // per rank, a permutation of reqs: the wait order
}

type oracleOp struct {
	kind  int
	op    Op
	root  int
	in    [][]float64 // per-rank contributions (Allreduce, Gather, Bcast root)
	batch int
}

type oracleProgram struct {
	size    int
	ops     []oracleOp
	batches []oracleBatch
}

// oracleValue draws a value spread over 33 decades, so sums depend on the
// order of the fold.
func oracleValue(rng *rand.Rand) float64 {
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(33)-16))
}

func oracleVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = oracleValue(rng)
	}
	return v
}

// genOracleProgram builds the program for a seed at the given world size.
func genOracleProgram(seed int64, size int) *oracleProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &oracleProgram{size: size}
	var open []int // posted batches not yet waited
	nops := 4 + rng.Intn(20)
	for len(p.ops) < nops || len(open) > 0 {
		k := rng.Intn(6)
		if len(p.ops) >= nops {
			k = orWait
		}
		op := oracleOp{kind: k}
		switch k {
		case orAllreduce:
			op.op = Op(rng.Intn(3))
			n := rng.Intn(6)
			for r := 0; r < size; r++ {
				op.in = append(op.in, oracleVec(rng, n))
			}
		case orGather:
			for r := 0; r < size; r++ {
				op.in = append(op.in, oracleVec(rng, rng.Intn(5)))
			}
		case orBcast:
			op.root = rng.Intn(size)
			op.in = make([][]float64, size)
			op.in[op.root] = oracleVec(rng, 1+rng.Intn(4))
		case orPost:
			op.batch = len(p.batches)
			p.batches = append(p.batches, genOracleBatch(rng, size))
			open = append(open, op.batch)
		case orWait:
			if len(open) == 0 {
				continue
			}
			i := rng.Intn(len(open))
			op.batch = open[i]
			open = append(open[:i], open[i+1:]...)
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// genOracleBatch draws one batch of one-shot messages with duplicate tags
// and AnyTag receives, then each rank's post order (its sends and receives
// interleaved, per-pair order kept) and its wait order (any permutation).
func genOracleBatch(rng *rand.Rand, size int) oracleBatch {
	b := oracleBatch{reqs: make([][]oracleReq, size), wait: make([][]int, size)}
	for i, n := 0, 1+rng.Intn(3*size); i < n; i++ {
		src := rng.Intn(size)
		dst := (src + 1 + rng.Intn(size-1)) % size
		b.msgs = append(b.msgs, oracleMsg{src: src, dst: dst, tag: rng.Intn(3), data: oracleVec(rng, rng.Intn(4))})
	}
	// Message order is send order per source and receive order per
	// destination; each rank's post list is a random merge of its sends
	// and receives that keeps the message order within each.
	for r := 0; r < size; r++ {
		var sends, recvs []oracleReq
		for i, m := range b.msgs {
			if m.src == r {
				sends = append(sends, oracleReq{send: true, msg: i, tag: m.tag})
			}
			if m.dst == r {
				tag := m.tag
				if rng.Intn(3) == 0 {
					tag = AnyTag
				}
				recvs = append(recvs, oracleReq{msg: i, tag: tag, n: len(m.data) + rng.Intn(3)})
			}
		}
		for len(sends)+len(recvs) > 0 {
			if len(recvs) == 0 || len(sends) > 0 && rng.Intn(2) == 0 {
				b.reqs[r], sends = append(b.reqs[r], sends[0]), sends[1:]
			} else {
				b.reqs[r], recvs = append(b.reqs[r], recvs[0]), recvs[1:]
			}
		}
		b.wait[r] = rng.Perm(len(b.reqs[r]))
	}
	return b
}

// model returns every rank's observations in program order: collective
// results and, at each wait, the batch's receive buffers in post order,
// each followed by its element count.
func (p *oracleProgram) model() [][][]float64 {
	obs := make([][][]float64, p.size)
	for _, op := range p.ops {
		switch op.kind {
		case orAllreduce:
			out := append([]float64(nil), op.in[0]...)
			for r := 1; r < p.size; r++ {
				for i, v := range op.in[r] {
					out[i] = op.op.apply(out[i], v)
				}
			}
			for r := range obs {
				obs[r] = append(obs[r], out)
			}
		case orGather:
			obs[0] = append(obs[0], op.in...)
		case orBcast:
			for r := range obs {
				obs[r] = append(obs[r], op.in[op.root])
			}
		case orWait:
			b := &p.batches[op.batch]
			for r := range obs {
				for _, q := range b.reqs[r] {
					if q.send {
						continue
					}
					buf := make([]float64, q.n)
					n := copy(buf, b.msgs[q.msg].data)
					obs[r] = append(obs[r], buf, []float64{float64(n)})
				}
			}
		}
	}
	return obs
}

// exec runs the program as one rank and returns its observations.
func (p *oracleProgram) exec(c *Comm) [][]float64 {
	var obs [][]float64
	me := c.Rank()
	reqs := make([][]*Request, len(p.batches))
	bufs := make([][][]float64, len(p.batches))
	for _, op := range p.ops {
		switch op.kind {
		case orBarrier:
			c.Barrier()
		case orAllreduce:
			obs = append(obs, c.Allreduce(op.op, op.in[me]))
		case orGather:
			rows := c.Gather(op.in[me])
			if me != 0 && rows != nil {
				panic("Gather returned rows on a non-root rank")
			}
			obs = append(obs, rows...)
		case orBcast:
			buf := make([]float64, len(op.in[op.root]))
			if me == op.root {
				copy(buf, op.in[me])
			}
			c.Bcast(op.root, buf)
			obs = append(obs, buf)
		case orPost:
			b := &p.batches[op.batch]
			for _, q := range b.reqs[me] {
				m := b.msgs[q.msg]
				if q.send {
					reqs[op.batch] = append(reqs[op.batch], c.Isend(m.dst, m.tag, m.data))
					bufs[op.batch] = append(bufs[op.batch], nil)
					continue
				}
				buf := make([]float64, q.n)
				reqs[op.batch] = append(reqs[op.batch], c.Irecv(m.src, q.tag, buf))
				bufs[op.batch] = append(bufs[op.batch], buf)
			}
		case orWait:
			b := &p.batches[op.batch]
			counts := make([]int, len(b.reqs[me]))
			for _, i := range b.wait[me] {
				counts[i] = reqs[op.batch][i].Wait()
			}
			for i, q := range b.reqs[me] {
				if !q.send {
					obs = append(obs, bufs[op.batch][i], []float64{float64(counts[i])})
				}
			}
		}
	}
	return obs
}

// runOracle runs the program on one transport and compares every rank's
// observations with the model, bit for bit.
func runOracle(t *testing.T, transport string, seed int64, size int) {
	t.Helper()
	p := genOracleProgram(seed, size)
	want := p.model()
	w, err := NewWorldOn(transport, size)
	if err != nil {
		t.Fatalf("NewWorldOn(%q, %d): %v", transport, size, err)
	}
	defer w.Close()
	w.SetWatchdog(10*time.Second, nil)
	got := make([][][]float64, size)
	func() {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("seed %d size %d on %s: world aborted: %v", seed, size, transport, v)
			}
		}()
		w.Run(func(c *Comm) { got[c.Rank()] = p.exec(c) })
	}()
	for r := range want {
		if err := sameObservations(got[r], want[r]); err != nil {
			t.Fatalf("seed %d size %d on %s, rank %d: %v", seed, size, transport, r, err)
		}
	}
}

func sameObservations(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d observations, model has %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("observation %d has %d elements, model %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("observation %d element %d = %v, model %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// oracleSize maps a seed to a world size in 2..5.
func oracleSize(seed int64) int { return 2 + int(uint64(seed)%4) }

// TestCollectiveOracle runs a fixed set of seeds on every transport.
func TestCollectiveOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, tr := range TransportNames() {
			runOracle(t, tr, seed, oracleSize(seed))
		}
	}
}

// FuzzCollectiveOracle searches seeds; a failing seed the fuzzer finds is
// kept under testdata/fuzz and replays in every plain `go test` run.
func FuzzCollectiveOracle(f *testing.F) {
	f.Add(int64(0))
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, tr := range TransportNames() {
			runOracle(t, tr, seed, oracleSize(seed))
		}
	})
}
