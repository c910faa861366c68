package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
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

// The persistent oracle: seeded programs of persistent and partitioned
// channels, checked against the same kind of sequential model. A channel is
// one SendInit/PsendInit on its source and one RecvInit/PrecvInit on its
// destination. Channels share (src, dst, tag) keys freely, and FIFO pairing
// makes the j-th channel of a key the j-th registration of that key on both
// sides, so the model needs no matching at all: it only has to respect
// registration order, which the generator keeps per key and per side.
//
// Registrations fall into phases separated by barriers, so either side of
// a channel may register first (late senders, late receivers). A ghost is
// an endpoint registered and freed while no peer can have matched it; the
// key it used goes on being registered afterwards. Then the program runs
// several cycles: buffers are refilled and sometimes rebound, every rank
// starts its endpoints, a collective may run before any Wait, partitions
// are marked ready in a random order, and requests are waited in a random
// order. Every receive buffer is observed after each cycle, with Parrived
// of each partition of a partitioned receive (true until the next Start),
// each receive side's Partitions once every registration is done, and rank
// 0 checks that nothing persistent is left after every endpoint is freed.

// Persistent program step kinds.
const (
	psReg        = iota // register one side of a channel
	psGhost             // register an endpoint and free it, unmatched
	psBarrier           // end of a registration phase
	psPartitions        // observe Partitions of every local receive side
	psCycle             // one Start/Pready/Wait cycle
	psFree              // free every endpoint, then check the leak counters
)

type persChan struct {
	src, dst, tag int
	n, capacity   int
	bounds        []int       // nil: unpartitioned
	active        []bool      // per cycle
	data          [][]float64 // per cycle: the sender's payload
}

type persStep struct {
	kind  int
	ch    int  // psReg: channel; psGhost: key (src, dst, tag) in ghost
	send  bool // which side
	ghost persChan
	cycle int
}

// persCycle is one cycle's per-rank schedule.
type persCycle struct {
	rebind  [][]persRebind // per rank
	start   [][]persEnd    // per rank, start order
	coll    *oracleOp      // collective between the Starts and the Preadys
	pready  [][][2]int     // per rank: (channel, partition) in ready order
	calls   [][]int        // per rank: pready split into calls — one entry a Pready, more a Preadyall
	wait    [][]persEnd    // per rank, wait order
	recvBuf map[int][]float64
}

type persEnd struct {
	ch   int
	send bool
}

// persRebind swaps one endpoint's buffer for a fresh one; a receive side's
// fresh buffer starts out holding init.
type persRebind struct {
	persEnd
	init []float64
}

type persProgram struct {
	size   int
	chans  []persChan
	init   [][]float64  // per channel: the receive buffer's first contents
	steps  [][]persStep // per rank
	cycles []persCycle
}

// genPersProgram builds the persistent program for a seed.
func genPersProgram(seed int64, size int) *persProgram {
	rng := rand.New(rand.NewSource(seed))
	// The split of each rank's Preadys into calls draws from its own
	// stream, so adding it left every other draw of a seed unchanged.
	split := rand.New(rand.NewSource(seed*31 + 17))
	p := &persProgram{size: size, steps: make([][]persStep, size)}
	ncycles := 1 + rng.Intn(4)
	nphases := 1 + rng.Intn(3)
	type regAt struct{ send, recv int } // registration phases
	var at []regAt
	last := map[[3]int]regAt{} // per key: the latest phases used
	for i, n := 0, 1+rng.Intn(2*size+2); i < n; i++ {
		ch := persChan{src: rng.Intn(size), dst: rng.Intn(size), tag: rng.Intn(2)}
		ch.n = 1 + rng.Intn(6)
		ch.capacity = ch.n + rng.Intn(2)
		if rng.Intn(2) == 0 {
			parts := 1 + rng.Intn(min(ch.n, 4))
			cuts := rng.Perm(ch.n - 1)[:parts-1]
			sort.Ints(cuts)
			ch.bounds = []int{0}
			for _, c := range cuts {
				ch.bounds = append(ch.bounds, c+1)
			}
			ch.bounds = append(ch.bounds, ch.n)
		}
		for c := 0; c < ncycles; c++ {
			ch.active = append(ch.active, rng.Intn(4) != 0)
			ch.data = append(ch.data, oracleVec(rng, ch.n))
		}
		key := [3]int{ch.src, ch.dst, ch.tag}
		prev := last[key]
		ra := regAt{send: max(prev.send, rng.Intn(nphases)), recv: max(prev.recv, rng.Intn(nphases))}
		last[key] = ra
		at = append(at, ra)
		p.chans = append(p.chans, ch)
		p.init = append(p.init, oracleVec(rng, ch.capacity))
	}
	// regsBefore counts a key's registrations on one side in phases below
	// (or, with upto, up to and including) phase ph.
	regsBefore := func(key [3]int, send bool, ph int, upto bool) int {
		k := 0
		for i, ch := range p.chans {
			reg := at[i].recv
			if send {
				reg = at[i].send
			}
			if [3]int{ch.src, ch.dst, ch.tag} == key && (reg < ph || upto && reg == ph) {
				k++
			}
		}
		return k
	}
	for ph := 0; ph < nphases; ph++ {
		ghosts := map[[3]int]bool{} // keys with a ghost in this phase
		for r := 0; r < size; r++ {
			// Each (key, side) keeps its channel order; the sequences are
			// merged at random.
			var seqs [][]persStep
			idx := map[[4]int]int{}
			for i, ch := range p.chans {
				for _, send := range []bool{true, false} {
					reg, owner := at[i].recv, ch.dst
					if send {
						reg, owner = at[i].send, ch.src
					}
					if reg != ph || owner != r {
						continue
					}
					k := [4]int{ch.src, ch.dst, ch.tag, 0}
					if send {
						k[3] = 1
					}
					j, ok := idx[k]
					if !ok {
						j = len(seqs)
						idx[k] = j
						seqs = append(seqs, nil)
					}
					seqs[j] = append(seqs[j], persStep{kind: psReg, ch: i, send: send})
				}
			}
			// A ghost may go anywhere in the phase when its key has no
			// endpoint the ghost could match: every peer-side registration
			// up to this phase is already matched by one from an earlier
			// phase, and no other ghost of the key shares the phase.
			if rng.Intn(2) == 0 {
				g := persChan{tag: rng.Intn(2), n: 1 + rng.Intn(4)}
				send := rng.Intn(2) == 0
				peer := rng.Intn(size)
				g.src, g.dst = r, peer
				if !send {
					g.src, g.dst = peer, r
				}
				key := [3]int{g.src, g.dst, g.tag}
				if !ghosts[key] && regsBefore(key, !send, ph, true) <= regsBefore(key, send, ph, false) {
					ghosts[key] = true
					seqs = append(seqs, []persStep{{kind: psGhost, send: send, ghost: g}})
				}
			}
			for len(seqs) > 0 {
				j := rng.Intn(len(seqs))
				p.steps[r] = append(p.steps[r], seqs[j][0])
				if seqs[j] = seqs[j][1:]; len(seqs[j]) == 0 {
					seqs = append(seqs[:j], seqs[j+1:]...)
				}
			}
			p.steps[r] = append(p.steps[r], persStep{kind: psBarrier})
		}
	}
	for r := 0; r < size; r++ {
		p.steps[r] = append(p.steps[r], persStep{kind: psPartitions})
	}
	for c := 0; c < ncycles; c++ {
		cy := persCycle{
			rebind: make([][]persRebind, size), start: make([][]persEnd, size),
			pready: make([][][2]int, size), calls: make([][]int, size), wait: make([][]persEnd, size),
		}
		for i, ch := range p.chans {
			if rng.Intn(5) == 0 {
				cy.rebind[ch.src] = append(cy.rebind[ch.src], persRebind{persEnd: persEnd{i, true}})
			}
			if rng.Intn(5) == 0 {
				cy.rebind[ch.dst] = append(cy.rebind[ch.dst], persRebind{persEnd{i, false}, oracleVec(rng, ch.capacity)})
			}
			if !ch.active[c] {
				continue
			}
			cy.start[ch.src] = append(cy.start[ch.src], persEnd{i, true})
			cy.start[ch.dst] = append(cy.start[ch.dst], persEnd{i, false})
			for part := 0; part+1 < len(ch.bounds); part++ {
				cy.pready[ch.src] = append(cy.pready[ch.src], [2]int{i, part})
			}
		}
		for r := 0; r < size; r++ {
			rng.Shuffle(len(cy.start[r]), func(a, b int) { cy.start[r][a], cy.start[r][b] = cy.start[r][b], cy.start[r][a] })
			rng.Shuffle(len(cy.pready[r]), func(a, b int) { cy.pready[r][a], cy.pready[r][b] = cy.pready[r][b], cy.pready[r][a] })
			for left := len(cy.pready[r]); left > 0; {
				k := 1 + split.Intn(left)
				cy.calls[r] = append(cy.calls[r], k)
				left -= k
			}
			cy.wait[r] = append([]persEnd(nil), cy.start[r]...)
			rng.Shuffle(len(cy.wait[r]), func(a, b int) { cy.wait[r][a], cy.wait[r][b] = cy.wait[r][b], cy.wait[r][a] })
		}
		switch rng.Intn(3) {
		case 0:
			cy.coll = &oracleOp{kind: orBarrier}
		case 1:
			op := oracleOp{kind: orAllreduce, op: Op(rng.Intn(3))}
			for r := 0; r < size; r++ {
				op.in = append(op.in, oracleVec(rng, 2))
			}
			cy.coll = &op
		}
		p.cycles = append(p.cycles, cy)
		for r := 0; r < size; r++ {
			p.steps[r] = append(p.steps[r], persStep{kind: psCycle, cycle: c})
		}
	}
	for r := 0; r < size; r++ {
		p.steps[r] = append(p.steps[r], persStep{kind: psFree})
	}
	return p
}

// model returns every rank's observations: the partition count of each
// local receive side, then per cycle the collective's result and each
// active local receive's buffer, count and, when partitioned, Parrived of
// every partition (in channel order), and on rank 0 the leak counters after
// the final free.
func (p *persProgram) model() [][][]float64 {
	obs := make([][][]float64, p.size)
	bufs := make([][]float64, len(p.chans))
	for i := range p.chans {
		bufs[i] = append([]float64(nil), p.init[i]...)
	}
	for i, ch := range p.chans {
		obs[ch.dst] = append(obs[ch.dst], []float64{float64(max(len(ch.bounds)-1, 0))})
		_ = i
	}
	for c, cy := range p.cycles {
		for r := range obs {
			for _, rb := range cy.rebind[r] {
				if !rb.send {
					bufs[rb.ch] = append([]float64(nil), rb.init...)
				}
			}
		}
		if cy.coll != nil && cy.coll.kind == orAllreduce {
			out := append([]float64(nil), cy.coll.in[0]...)
			for r := 1; r < p.size; r++ {
				for i, v := range cy.coll.in[r] {
					out[i] = cy.coll.op.apply(out[i], v)
				}
			}
			for r := range obs {
				obs[r] = append(obs[r], out)
			}
		}
		for i, ch := range p.chans {
			if ch.active[c] {
				copy(bufs[i], ch.data[c])
				obs[ch.dst] = append(obs[ch.dst], append([]float64(nil), bufs[i]...), []float64{float64(ch.n)})
				if parts := len(ch.bounds) - 1; parts > 0 {
					arrived := make([]float64, parts)
					for j := range arrived {
						arrived[j] = 1
					}
					obs[ch.dst] = append(obs[ch.dst], arrived)
				}
			}
		}
	}
	obs[0] = append(obs[0], []float64{0, 0})
	return obs
}

// exec runs the program as one rank and returns its observations. A rank
// given a stop step aborts the world just before running it (-1: never).
func (p *persProgram) exec(c *Comm, stop int) [][]float64 {
	var obs [][]float64
	me := c.Rank()
	reqs := map[persEnd]*Request{}
	bufs := map[persEnd][]float64{}
	register := func(e persEnd) {
		ch := p.chans[e.ch]
		if e.send {
			buf := make([]float64, ch.n)
			bufs[e] = buf
			if ch.bounds != nil {
				reqs[e] = c.PsendInit(ch.dst, ch.tag, buf, ch.bounds)
			} else {
				reqs[e] = c.SendInit(ch.dst, ch.tag, buf)
			}
			return
		}
		buf := append([]float64(nil), p.init[e.ch]...)
		bufs[e] = buf
		if ch.bounds != nil {
			reqs[e] = c.PrecvInit(ch.src, ch.tag, buf)
		} else {
			reqs[e] = c.RecvInit(ch.src, ch.tag, buf)
		}
	}
	halt := func(i int) {
		if i == stop {
			c.Abort(fmt.Errorf("oracle: rank %d stops before step %d", me, i))
		}
	}
	for i, st := range p.steps[me] {
		halt(i)
		switch st.kind {
		case psReg:
			register(persEnd{st.ch, st.send})
		case psGhost:
			g := st.ghost
			buf := make([]float64, g.n)
			for i := range buf {
				buf[i] = math.Inf(-1)
			}
			if st.send {
				c.SendInit(g.dst, g.tag, buf).Free()
			} else {
				c.RecvInit(g.src, g.tag, buf).Free()
			}
		case psBarrier:
			c.Barrier()
		case psPartitions:
			for i, ch := range p.chans {
				if ch.dst == me {
					obs = append(obs, []float64{float64(reqs[persEnd{i, false}].Partitions())})
				}
			}
		case psCycle:
			cy := p.cycles[st.cycle]
			for _, rb := range cy.rebind[me] {
				buf := make([]float64, len(bufs[rb.persEnd]))
				if !rb.send {
					copy(buf, rb.init)
				}
				reqs[rb.persEnd].Rebind(buf)
				bufs[rb.persEnd] = buf
			}
			for i, ch := range p.chans {
				if ch.src == me && ch.active[st.cycle] {
					copy(bufs[persEnd{i, true}], ch.data[st.cycle])
				}
			}
			for _, e := range cy.start[me] {
				reqs[e].Start()
			}
			if cy.coll != nil {
				if cy.coll.kind == orBarrier {
					c.Barrier()
				} else {
					obs = append(obs, c.Allreduce(cy.coll.op, cy.coll.in[me]))
				}
			}
			ready := cy.pready[me]
			for _, k := range cy.calls[me] {
				if k == 1 {
					reqs[persEnd{ready[0][0], true}].Pready(ready[0][1])
				} else {
					var rs []*Request
					var parts []int
					for _, pr := range ready[:k] {
						rs, parts = append(rs, reqs[persEnd{pr[0], true}]), append(parts, pr[1])
					}
					Preadyall(rs, parts)
				}
				ready = ready[k:]
			}
			counts := map[persEnd]int{}
			for _, e := range cy.wait[me] {
				counts[e] = reqs[e].Wait()
			}
			for i, ch := range p.chans {
				if e := (persEnd{i, false}); ch.dst == me && ch.active[st.cycle] {
					obs = append(obs, append([]float64(nil), bufs[e]...), []float64{float64(counts[e])})
					if parts := len(ch.bounds) - 1; parts > 0 {
						arrived := make([]float64, parts)
						for j := range arrived {
							if reqs[e].Parrived(j) {
								arrived[j] = 1
							}
						}
						obs = append(obs, arrived)
					}
				}
			}
		case psFree:
			for _, r := range reqs {
				r.Free()
			}
			c.Barrier()
			if me == 0 {
				un, live := c.world.PersistentPending()
				obs = append(obs, []float64{float64(un), float64(live)})
			}
		}
	}
	halt(len(p.steps[me]))
	return obs
}

// runPersOracle runs the persistent program for a seed on one transport.
func runPersOracle(t *testing.T, transport string, seed int64, size int) {
	t.Helper()
	p := genPersProgram(seed, size)
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
		w.Run(func(c *Comm) { got[c.Rank()] = p.exec(c, -1) })
	}()
	for r := range want {
		if err := sameObservations(got[r], want[r]); err != nil {
			t.Fatalf("seed %d size %d on %s, rank %d: %v", seed, size, transport, r, err)
		}
	}
}

// TestPersistentOracle runs a fixed set of seeds on every transport.
func TestPersistentOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, tr := range TransportNames() {
			runPersOracle(t, tr, seed, oracleSize(seed))
		}
	}
}

// runPersOracleRespawn runs the persistent program for a seed under
// RunRecoverable: in epoch 0 a seeded victim rank aborts before a seeded
// step, the world respawns once, and epoch 1 must run the whole program to
// the model's observations on every rank.
func runPersOracleRespawn(t *testing.T, transport string, seed int64, size int) {
	t.Helper()
	p := genPersProgram(seed, size)
	want := p.model()
	rng := rand.New(rand.NewSource(^seed))
	victim := rng.Intn(size)
	stop := rng.Intn(len(p.steps[victim]) + 1)
	w, err := NewWorldOn(transport, size)
	if err != nil {
		t.Fatalf("NewWorldOn(%q, %d): %v", transport, size, err)
	}
	defer w.Close()
	w.SetWatchdog(10*time.Second, nil)
	got := make([][][]float64, size)
	var epoch atomic.Int64
	func() {
		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("seed %d size %d on %s: world aborted: %v", seed, size, transport, v)
			}
		}()
		w.RunRecoverable(func(c *Comm) {
			s := -1
			if epoch.Load() == 0 && c.Rank() == victim {
				s = stop
			}
			got[c.Rank()] = p.exec(c, s)
		}, func(ae *AbortError, attempt int) (int, bool) {
			if ae.Rank != victim {
				t.Errorf("seed %d on %s: abort attributed to rank %d, want %d: %v", seed, transport, ae.Rank, victim, ae)
			}
			epoch.Add(1)
			return -1, attempt == 1
		})
	}()
	if epoch.Load() != 1 {
		t.Fatalf("seed %d on %s: recovered %d times, want 1", seed, transport, epoch.Load())
	}
	for r := range want {
		if err := sameObservations(got[r], want[r]); err != nil {
			t.Fatalf("seed %d size %d on %s, rank %d: %v", seed, size, transport, r, err)
		}
	}
}

// TestPersistentOracleRespawn runs the respawn-mid-program form of the
// oracle for a fixed set of seeds on every transport.
func TestPersistentOracleRespawn(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		for _, tr := range TransportNames() {
			runPersOracleRespawn(t, tr, seed, oracleSize(seed))
		}
	}
}

// FuzzPersistentOracle searches seeds; a failing seed the fuzzer finds is
// kept under testdata/fuzz and replays in every plain `go test` run.
func FuzzPersistentOracle(f *testing.F) {
	f.Add(int64(0))
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, tr := range TransportNames() {
			runPersOracle(t, tr, seed, oracleSize(seed))
		}
	})
}

// workerWorlds attaches one worker world per rank of w, all in this
// process: each hosts its rank alone, so persistent pairing runs over
// descriptors exactly as it does between worker processes.
func workerWorlds(t *testing.T, w *World) []*World {
	t.Helper()
	ws := make([]*World, w.Size())
	for r := range ws {
		ws[r] = attachWorker(t, w, r)
	}
	return ws
}

// runAcrossWorkers runs exec on a fresh world of the given size with each
// rank in its own worker world, and returns every rank's observations.
func runAcrossWorkers(t *testing.T, transport string, size int, exec func(c *Comm) [][]float64) [][][]float64 {
	t.Helper()
	w, err := NewWorldOn(transport, size)
	if err != nil {
		t.Fatalf("NewWorldOn(%q): %v", transport, err)
	}
	defer w.Close()
	if transport == "shmem" && w.ShmemFile() == nil {
		t.Skip("shmem arena fell back to the heap; worker worlds unavailable")
	}
	ws := workerWorlds(t, w)
	got := make([][][]float64, size)
	errs := make([]any, size)
	var wg sync.WaitGroup
	for r, a := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { errs[r] = recover() }()
			a.RunRank(r, func(c *Comm) { got[r] = exec(c) })
		}()
	}
	wg.Wait()
	for _, a := range ws {
		a.Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return got
}

// TestPersistentOracleAcrossWorkers runs two-rank persistent programs with
// each rank in its own worker world on shmem and tcp. Two ranks keep every
// ordering the programs rely on direct: a withdrawal is ordered only before
// what its sender sends the same receiver afterwards.
func TestPersistentOracleAcrossWorkers(t *testing.T) {
	for _, tr := range []string{"shmem", "tcp"} {
		for seed := int64(4); seed <= 96; seed += 4 {
			p := genPersProgram(seed, 2)
			got := runAcrossWorkers(t, tr, 2, func(c *Comm) [][]float64 { return p.exec(c, -1) })
			for r, want := range p.model() {
				if err := sameObservations(got[r], want); err != nil {
					t.Fatalf("seed %d on %s workers, rank %d: %v", seed, tr, r, err)
				}
			}
		}
	}
}

// TestCollectiveOracleAcrossWorkers runs the collective oracle's programs
// with each rank in its own worker world on shmem and tcp, so every rank
// matches its one-shot messages — collectives included — in a matcher of
// its own. Every size the in-process oracle runs is kept: the programs'
// receives name their source, so no ordering through a third rank matters.
func TestCollectiveOracleAcrossWorkers(t *testing.T) {
	for _, tr := range []string{"shmem", "tcp"} {
		for seed := int64(1); seed <= 24; seed++ {
			size := oracleSize(seed)
			p := genOracleProgram(seed, size)
			got := runAcrossWorkers(t, tr, size, p.exec)
			for r, want := range p.model() {
				if err := sameObservations(got[r], want); err != nil {
					t.Fatalf("seed %d size %d on %s workers, rank %d: %v", seed, size, tr, r, err)
				}
			}
		}
	}
}
