package mpi

import (
	"fmt"
	"math"
)

// The collectives are written once, for every backend, as a rank-0
// fan-in/fan-out of one-shot messages (oneshot.go) on collTag. Rank 0
// receives the contributions in ascending rank order and folds them in that
// order, which is what keeps reductions Float64bits-identical on every
// transport. collTag lies below AnyTag, and matches never lets a wildcard
// reach below AnyTag, so collective traffic is a matching context of its
// own: no user receive, wildcard or not, can take a collective message, and
// no collective receive can take a user message.
//
// Collective messages travel on the rank's sys Comm, which has no metrics,
// no flight ring and traffic counters nobody reads, and they bypass
// Comm.Isend's fault injection: Traffic, flight recordings and fault
// ordinals count user messages only. Abort, epoch and incarnation filtering
// are the point-to-point path's own.

// collTag is the reserved tag of every collective message.
const collTag = AnyTag - 1

// Collective kinds: the index into World.inColl, whose counts the
// StallReport prints as barrier=/reduce=/gather=.
const (
	collBarrier = iota
	collReduce
	collGather
)

// csend posts one collective message to dst.
func (c *Comm) csend(dst int, buf []float64) *Request {
	return c.sys.isend(dst, collTag, buf, nil, 0)
}

// crecv receives one collective message from src into buf.
func (c *Comm) crecv(src int, buf []float64) {
	c.sys.irecv(src, collTag, buf).Wait()
}

// sendLen sends a contribution to rank 0 as two messages, its length and
// then its payload, so rank 0 can size (or reject) the payload before it
// receives it.
func (c *Comm) sendLen(in []float64) {
	n := []float64{float64(len(in))}
	Waitall([]*Request{c.csend(0, n), c.csend(0, in)})
}

// recvLen is rank 0's half of sendLen: it returns the length src announced.
func (c *Comm) recvLen(src int) int {
	var n [1]float64
	c.crecv(src, n[:])
	return int(n[0])
}

// fanOut sends buf from this rank to every other rank.
func (c *Comm) fanOut(buf []float64) {
	reqs := make([]*Request, 0, c.Size()-1)
	for r := 0; r < c.Size(); r++ {
		if r != c.rank {
			reqs = append(reqs, c.csend(r, buf))
		}
	}
	Waitall(reqs)
}

// Barrier blocks until every rank has entered it, or panics with the
// world's *AbortError if the world aborts first.
func (c *Comm) Barrier() {
	c.world.inColl[collBarrier].Add(1)
	defer c.world.inColl[collBarrier].Add(-1)
	if c.rank != 0 {
		c.csend(0, nil).Wait()
		c.crecv(0, nil)
		return
	}
	for r := 1; r < c.Size(); r++ {
		c.crecv(r, nil)
	}
	c.fanOut(nil)
}

// Op is a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	OpMax
)

func (op Op) apply(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
}

// Allreduce combines in across all ranks element-wise with op and returns
// the combined vector on every rank. Rank 0 folds the contributions in
// ascending rank order, so floating-point results are deterministic and
// identical on every backend. All ranks must pass the same length; a
// mismatch aborts the world. Panics with the world's *AbortError if the
// world aborts mid-reduction.
func (c *Comm) Allreduce(op Op, in []float64) []float64 {
	c.world.inColl[collReduce].Add(1)
	defer c.world.inColl[collReduce].Add(-1)
	out := append([]float64(nil), in...)
	if c.rank != 0 {
		c.sendLen(in)
		c.crecv(0, out)
		return out
	}
	part := make([]float64, len(in))
	for r := 1; r < c.Size(); r++ {
		if n := c.recvLen(r); n != len(in) {
			panic(fmt.Sprintf("mpi: Allreduce length mismatch: rank %d passed %d elements, rank 0 passed %d",
				r, n, len(in)))
		}
		c.crecv(r, part)
		for i, v := range part {
			out[i] = op.apply(out[i], v)
		}
	}
	c.fanOut(out)
	return out
}

// Allreduce1 reduces a single value across all ranks.
func (c *Comm) Allreduce1(op Op, x float64) float64 {
	return c.Allreduce(op, []float64{x})[0]
}

// Gather collects each rank's vector on rank 0, which receives a slice of
// per-rank vectors (indexed by rank; lengths may differ); other ranks
// receive nil and return once their contribution is handed off. Panics
// with the world's *AbortError if the world aborts mid-gather.
func (c *Comm) Gather(in []float64) [][]float64 {
	c.world.inColl[collGather].Add(1)
	defer c.world.inColl[collGather].Add(-1)
	if c.rank != 0 {
		c.sendLen(in)
		return nil
	}
	out := make([][]float64, c.Size())
	out[0] = append([]float64(nil), in...)
	for r := 1; r < c.Size(); r++ {
		out[r] = make([]float64, c.recvLen(r))
		c.crecv(r, out[r])
	}
	return out
}
