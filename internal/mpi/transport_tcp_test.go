package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/metrics"
	"github.com/bricklab/brick/internal/mpi/tcpconn"
)

// These tests poke the tcp backend below the Transport interface: raw
// frames against a live listener, severed connections, silenced
// heartbeats. They pin the connection-level robustness contract — stale
// traffic is refused or dropped, lost frames abort, duplicates are
// filtered, a spent redial budget fails loud, and silence is detected —
// at the wire where it is enforced, while the conformance suite and the
// harness tests cover the same properties end to end.

// newTCPTestWorld builds a 2-rank tcp world and attaches both ranks'
// nodes (newComm attaches lazily, so an empty run forces it). The run
// sends nothing: the raw-frame tests below stamp wire sequences from 1.
func newTCPTestWorld(t *testing.T) (*World, *tcpTransport) {
	t.Helper()
	w, err := NewWorldOn("tcp", 2)
	if err != nil {
		t.Fatalf(`NewWorldOn("tcp", 2): %v`, err)
	}
	t.Cleanup(func() { w.Close() })
	w.Run(func(*Comm) {})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("attach run aborted: %v", ae)
	}
	return w, w.tr.(*tcpTransport)
}

// rawJoin dials addr directly and runs the JOIN handshake with an
// arbitrary (possibly stale or foreign) identity, returning the reply.
func rawJoin(t *testing.T, addr string, join *ctlMsg) (net.Conn, byte, *ctlMsg) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("raw dial %s: %v", addr, err)
	}
	b, _ := json.Marshal(join)
	if err := tcpconn.WriteFrame(conn, tfJoin, b); err != nil {
		t.Fatalf("raw join write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, payload, err := tcpconn.ReadFrame(conn)
	if err != nil {
		t.Fatalf("raw join reply: %v", err)
	}
	conn.SetReadDeadline(time.Time{})
	var reply ctlMsg
	if err := json.Unmarshal(payload, &reply); err != nil {
		t.Fatalf("raw join reply decode: %v", err)
	}
	return conn, kind, &reply
}

// appendDataFrame is the reference encoding of one data frame's payload,
// word by word: the header, elems float64s as little-endian bits, then the
// flips. Raw-frame tests hand-craft frames with it, and the flush and the
// header-only decoder are held to it byte for byte.
func appendDataFrame(dst []byte, h *tcpHdr, data []float64, flips []fault.ByteFlip) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(h.src))
	dst = le.AppendUint32(dst, uint32(h.dst))
	dst = le.AppendUint32(dst, uint32(h.tag))
	dst = le.AppendUint64(dst, h.id)
	dst = le.AppendUint64(dst, h.epoch)
	dst = le.AppendUint64(dst, h.inc)
	dst = le.AppendUint64(dst, h.wireSeq)
	dst = le.AppendUint64(dst, h.fseq)
	dst = le.AppendUint64(dst, h.cyc)
	dst = le.AppendUint32(dst, uint32(len(data)))
	dst = le.AppendUint32(dst, uint32(len(flips)))
	for _, v := range data {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	for _, fl := range flips {
		dst = le.AppendUint32(dst, uint32(fl.Off))
		dst = append(dst, fl.Mask, 0, 0, 0)
	}
	return dst
}

func waitFrameCount(t *testing.T, reg *metrics.Registry, kind string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": kind}).Value()
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("TransportFramesTotal{kind=%q} = %d, want >= %d", kind, got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitAbortContaining(t *testing.T, w *World, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ae := w.Aborted(); ae != nil {
			if !strings.Contains(ae.Error(), want) {
				t.Fatalf("abort lacks %q: %v", want, ae)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("world never aborted (waiting for %q)", want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPJoinGauntlet drives the accept-side JOIN checks with raw dials:
// a foreign world, a stale epoch, and a stale incarnation must each be
// refused with a tfJoinNo naming the reason, never silently accepted.
func TestTCPJoinGauntlet(t *testing.T) {
	_, tr := newTCPTestWorld(t)
	n0 := tr.node(0)
	addr := n0.ln.Addr().String()
	ep := n0.epoch.Load()

	cases := []struct {
		name string
		join *ctlMsg
		want string
	}{
		{"wrong-world", &ctlMsg{WorldID: tr.worldID + 1, Epoch: ep, Rank: 1}, "wrong world"},
		{"stale-epoch", &ctlMsg{WorldID: tr.worldID, Epoch: ep + 7, Rank: 1}, "stale epoch"},
	}
	for _, tc := range cases {
		conn, kind, reply := rawJoin(t, addr, tc.join)
		conn.Close()
		if kind != tfJoinNo {
			t.Fatalf("%s: reply kind %d, want tfJoinNo", tc.name, kind)
		}
		if !strings.Contains(reply.Msg, tc.want) {
			t.Fatalf("%s: rejection %q lacks %q", tc.name, reply.Msg, tc.want)
		}
	}

	// A join at a new high incarnation is accepted (the respawned rank's
	// first dial); a later join at a lower incarnation is its dead
	// predecessor and must be refused.
	conn5, kind, _ := rawJoin(t, addr, &ctlMsg{WorldID: tr.worldID, Epoch: ep, Rank: 1, Inc: 5})
	defer conn5.Close()
	if kind != tfJoinOK {
		t.Fatalf("join at incarnation 5: reply kind %d, want tfJoinOK", kind)
	}
	conn2, kind, reply := rawJoin(t, addr, &ctlMsg{WorldID: tr.worldID, Epoch: ep, Rank: 1, Inc: 2})
	conn2.Close()
	if kind != tfJoinNo {
		t.Fatalf("join at incarnation 2 after 5: reply kind %d, want tfJoinNo", kind)
	}
	if !strings.Contains(reply.Msg, "stale incarnation") {
		t.Fatalf("rejection %q does not name the stale incarnation", reply.Msg)
	}
}

// TestTCPStaleAndDuplicateFramesDropped sends hand-crafted data frames
// on a joined stream: one stamped with a pre-recovery epoch (dropped as
// stale), one live (delivered), and the live one replayed (dropped as a
// duplicate by the exactly-once wire-sequence filter). Each fate is
// observable in TransportFramesTotal.
func TestTCPStaleAndDuplicateFramesDropped(t *testing.T) {
	w, tr := newTCPTestWorld(t)
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	n0 := tr.node(0)
	addr := n0.ln.Addr().String()
	ep := n0.epoch.Load()

	conn, kind, _ := rawJoin(t, addr, &ctlMsg{WorldID: tr.worldID, Epoch: ep, Rank: 1})
	defer conn.Close()
	if kind != tfJoinOK {
		t.Fatalf("join reply kind %d, want tfJoinOK", kind)
	}

	stale := appendDataFrame(nil, &tcpHdr{src: 1, dst: 0, tag: 7, epoch: ep + 1, wireSeq: 1}, []float64{3.5}, nil)
	if err := tcpconn.WriteFrame(conn, tfData, stale); err != nil {
		t.Fatalf("write stale frame: %v", err)
	}
	waitFrameCount(t, reg, "stale-drop", 1)

	live := appendDataFrame(nil, &tcpHdr{src: 1, dst: 0, tag: 7, epoch: ep, wireSeq: 1}, []float64{3.5}, nil)
	if err := tcpconn.WriteFrame(conn, tfData, live); err != nil {
		t.Fatalf("write live frame: %v", err)
	}
	waitFrameCount(t, reg, "data", 1)

	if err := tcpconn.WriteFrame(conn, tfData, live); err != nil {
		t.Fatalf("replay live frame: %v", err)
	}
	waitFrameCount(t, reg, "dup-drop", 1)

	if got := len(w.oneShotOps()); got != 1 {
		t.Fatalf("rank 0 pending ops = %d, want exactly the one delivered unmatched message", got)
	}
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("stale/duplicate frames aborted the world: %v", ae)
	}
}

// TestTCPLostFrameAborts: a wire-sequence gap (frames 1..3 never arrive,
// frame 4 does) is a lost message and must abort the world naming the
// gap — the exactly-once story is "deliver once or abort", never a hang.
func TestTCPLostFrameAborts(t *testing.T) {
	w, tr := newTCPTestWorld(t)
	n0 := tr.node(0)
	ep := n0.epoch.Load()

	conn, kind, _ := rawJoin(t, n0.ln.Addr().String(), &ctlMsg{WorldID: tr.worldID, Epoch: ep, Rank: 1})
	defer conn.Close()
	if kind != tfJoinOK {
		t.Fatalf("join reply kind %d, want tfJoinOK", kind)
	}
	gap := appendDataFrame(nil, &tcpHdr{src: 1, dst: 0, tag: 7, epoch: ep, wireSeq: 4}, []float64{1}, nil)
	if err := tcpconn.WriteFrame(conn, tfData, gap); err != nil {
		t.Fatalf("write gapped frame: %v", err)
	}
	waitAbortContaining(t, w, "lost 3 frame(s) from rank 1")
}

// TestTCPHeartbeatSilenceDetected: a peer that joins and then goes
// silent must first be recorded as heartbeat misses (metric + flight
// event, rate-limited) and, past the dead threshold, declared dead with
// a world abort naming the silent rank.
func TestTCPHeartbeatSilenceDetected(t *testing.T) {
	oldInterval, oldMiss, oldDead := tcpHBInterval, tcpHBMissAfter, tcpHBDeadAfter
	tcpHBInterval, tcpHBMissAfter, tcpHBDeadAfter = 10*time.Millisecond, 50*time.Millisecond, 400*time.Millisecond
	defer func() { tcpHBInterval, tcpHBMissAfter, tcpHBDeadAfter = oldInterval, oldMiss, oldDead }()

	w, tr := newTCPTestWorld(t)
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	n0 := tr.node(0)

	conn, kind, _ := rawJoin(t, n0.ln.Addr().String(), &ctlMsg{WorldID: tr.worldID, Epoch: n0.epoch.Load(), Rank: 1})
	defer conn.Close()
	if kind != tfJoinOK {
		t.Fatalf("join reply kind %d, want tfJoinOK", kind)
	}
	// Silence. The accepted stream ages past miss, then past dead.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(metrics.TransportHeartbeatMissesTotal,
		metrics.Labels{"rank": "0", "peer": "1"}).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat miss never recorded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitAbortContaining(t, w, "lost heartbeat from rank 1")
}

// TestTCPReconnectBudgetExhaustedAborts severs every path to rank 1 —
// listener closed, accepted streams cut, rank 0's dialed stream dropped —
// so rank 0's next send must redial into a refused port until the backoff
// budget is spent. The run must end in an abort naming the spent budget,
// with rank 1's parked receive unwound by it, never a hang.
func TestTCPReconnectBudgetExhaustedAborts(t *testing.T) {
	oldPolicy := tcpDialPolicyBase
	tcpDialPolicyBase.Attempts = 3
	tcpDialPolicyBase.Initial = 2 * time.Millisecond
	tcpDialPolicyBase.Max = 10 * time.Millisecond
	defer func() { tcpDialPolicyBase = oldPolicy }()

	w, err := NewWorldOn("tcp", 2)
	if err != nil {
		t.Fatalf(`NewWorldOn("tcp", 2): %v`, err)
	}
	defer w.Close()
	tr := w.tr.(*tcpTransport)

	ae := runWorldExpectAbort(t, w, 30*time.Second, func(c *Comm) {
		buf := make([]float64, 4)
		if c.Rank() == 0 {
			c.Send(1, 1, buf)
			c.Recv(1, 2, buf) // rank 1 is alive and drained the first send
			n1 := tr.node(1)
			n1.ln.Close()
			n1.mu.Lock()
			for a := range n1.accepted {
				a.conn.Close()
			}
			n1.mu.Unlock()
			o := tr.node(0).out(1)
			o.mu.Lock()
			if o.conn != nil {
				o.conn.Close()
				o.conn = nil
			}
			o.mu.Unlock()
			c.Send(1, 3, buf) // redial into the closed port until the budget dies
		} else {
			c.Recv(0, 1, buf)
			c.Send(0, 2, buf)
			c.Recv(0, 9, buf) // never sent; the abort must unwind this
		}
	})
	if !strings.Contains(ae.Error(), "reconnect budget exhausted") {
		t.Fatalf("abort does not name the spent reconnect budget: %v", ae)
	}
}

// TestTCPNetPartitionReconnects injects a deterministic link sever before
// rank 0's second frame to rank 1: the transport must redial under its
// backoff policy, count the reconnect, and still deliver every message
// exactly once with payloads intact.
func TestTCPNetPartitionReconnects(t *testing.T) {
	w, err := NewWorldOn("tcp", 2)
	if err != nil {
		t.Fatalf(`NewWorldOn("tcp", 2): %v`, err)
	}
	defer w.Close()
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	w.SetFault(fault.New(1).WithNetPartition(0, 1, 2, 30*time.Millisecond))

	const msgs = 3
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, i+1, []float64{float64(i), float64(2 * i)})
			}
		} else {
			buf := make([]float64, 2)
			for i := 0; i < msgs; i++ {
				c.Recv(0, i+1, buf)
				if buf[0] != float64(i) || buf[1] != float64(2*i) {
					t.Errorf("message %d arrived damaged: %v", i, buf)
				}
			}
		}
	})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("partitioned run aborted: %v", ae)
	}
	got := reg.Counter(metrics.TransportReconnectsTotal, metrics.Labels{"rank": "0", "peer": "1"}).Value()
	if got < 1 {
		t.Fatalf("TransportReconnectsTotal{rank=0,peer=1} = %d, want >= 1 after an injected partition", got)
	}
	if drops := reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": "stale-drop"}).Value(); drops != 0 {
		t.Fatalf("reconnect within one epoch dropped %d frames as stale", drops)
	}
}

// TestTCPWaitTimeoutAndRebind covers the error-returning deadline waits
// (one-shot and persistent) and persistent-buffer rebinding over tcp: an
// unmatched wait times out with the op named, the same request still
// completes once the peer shows up, and a rebound endpoint delivers into
// the new buffer on the next cycle.
func TestTCPWaitTimeoutAndRebind(t *testing.T) {
	w, _ := newTCPTestWorld(t)
	gate := func(c *Comm, tag int) {
		if c.Rank() == 0 {
			c.Send(1, tag, []float64{1})
		} else {
			c.Recv(0, tag, make([]float64, 1))
		}
	}
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := make([]float64, 2)
			r := c.Irecv(1, 7, buf)
			if _, err := r.WaitTimeout(30 * time.Millisecond); err == nil {
				t.Error("unmatched one-shot recv did not time out")
			}
			gate(c, 100) // release the peer's send
			r.Wait()
			if buf[0] != 42 {
				t.Errorf("recv after timeout got %v, want 42", buf[0])
			}

			pbuf := make([]float64, 2)
			pr := c.RecvInit(1, 8, pbuf)
			pr.Start()
			if _, err := pr.WaitTimeout(30 * time.Millisecond); err == nil {
				t.Error("pending persistent recv did not time out")
			}
			gate(c, 101) // release the peer's first persistent cycle
			if _, err := pr.WaitTimeout(10 * time.Second); err != nil {
				t.Errorf("persistent recv after release: %v", err)
			}
			if pbuf[0] != 7 {
				t.Errorf("persistent cycle 1 got %v, want 7", pbuf[0])
			}
			nbuf := make([]float64, 2)
			pr.Rebind(nbuf)
			pr.Start()
			gate(c, 102) // release the peer's second cycle
			pr.Wait()
			if nbuf[0] != 9 || pbuf[0] != 7 {
				t.Errorf("rebound recv got new=%v old=%v, want 9 and 7", nbuf[0], pbuf[0])
			}
			pr.Free()
		} else {
			gate(c, 100)
			c.Send(0, 7, []float64{42, 0})
			sbuf := []float64{7, 0}
			ps := c.SendInit(0, 8, sbuf)
			gate(c, 101)
			ps.Start()
			if _, err := ps.WaitTimeout(10 * time.Second); err != nil {
				t.Errorf("persistent send cycle 1: %v", err)
			}
			nbuf := []float64{9, 0}
			ps.Rebind(nbuf)
			gate(c, 102)
			ps.Start()
			ps.Wait()
			ps.Free()
		}
	})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("world aborted: %v", ae)
	}
}

// TestTCPFrameLandsOnlyAfterStart: a persistent frame that beats the
// receiver's Start parks instead of landing. Until Start the receive
// buffer is the rank's own — a checkpoint restore writes it, the previous
// step's compute reads it — so an eager copy into it was a data race that
// could also let the restore overwrite delivered ghosts.
func TestTCPFrameLandsOnlyAfterStart(t *testing.T) {
	w, _ := newTCPTestWorld(t)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			s := c.SendInit(1, 3, []float64{7, 8})
			c.Barrier()
			s.Start()
			s.Wait()
			c.Barrier()
			return
		}
		buf := []float64{-1, -1}
		r := c.RecvInit(0, 3, buf)
		c.Barrier()
		e := r.op.(*cycle)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			e.mu.Lock()
			parked := len(e.link.(*tcpLink).parked)
			e.mu.Unlock()
			if parked > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Error("the early frame never parked")
				break
			}
		}
		if buf[0] != -1 || buf[1] != -1 {
			t.Errorf("frame landed before Start: buffer %v", buf)
		}
		c.Barrier()
		r.Start()
		r.Wait()
		if buf[0] != 7 || buf[1] != 8 {
			t.Errorf("after Start/Wait buffer = %v, want [7 8]", buf)
		}
	})
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("run aborted: %v", ae)
	}
}

// FuzzDecodeDataFrame holds the data-frame codec to two properties:
// decodeDataFrame never panics on any input, and every frame it accepts —
// its header decoded, its payload copied out of the frame as wire bytes —
// re-encodes byte for byte.
func FuzzDecodeDataFrame(f *testing.F) {
	plain := tcpHdr{src: 1, dst: 2, tag: 7, epoch: 3, inc: 1, wireSeq: 9, fseq: 4}
	f.Add(appendDataFrame(nil, &plain, []float64{1.5, -2, math.Inf(1)}, nil))
	pers := tcpHdr{src: 0, dst: 3, tag: 41, id: 1<<32 | 5, epoch: 1, wireSeq: 2, fseq: 7, cyc: 3}
	f.Add(appendDataFrame(nil, &pers, []float64{0.25, math.NaN()}, nil))
	f.Add(appendDataFrame(nil, &pers, []float64{1, 2, 3}, []fault.ByteFlip{{Off: 3, Mask: 0x80}, {Off: 17, Mask: 1}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var h tcpHdr
		wire, flips, err := decodeDataFrame(b, &h)
		if err != nil {
			return
		}
		data := make([]float64, len(wire)/8)
		copyWire(data, wire)
		if got := appendDataFrame(nil, &h, data, flips); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", got, b)
		}
	})
}

// TestTCPBatchWireUnchanged captures what one flush writes to a loopback
// stream — a payload with flips, a payload listed twice by a dup verdict,
// a one-shot message — and holds it to the reference
// encoding: each frame exactly as tcpconn.AppendFrame(appendDataFrame(...))
// lays it out, in order, from one vectored write.
func TestTCPBatchWireUnchanged(t *testing.T) {
	oldHB := tcpHBInterval
	tcpHBInterval = time.Hour // no heartbeat frame between the captured ones
	defer func() { tcpHBInterval = oldHB }()
	w, tr := newTCPTestWorld(t)
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	w.SetFault(fault.New(1).WithNetDup(0, 2))
	n0 := tr.node(0)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer server.Close()
	o := n0.out(1)
	o.mu.Lock()
	if o.conn != nil {
		o.conn.Close()
	}
	o.conn, o.everConnected = client, true
	seq := o.seq
	o.mu.Unlock()

	ep := n0.epoch.Load()
	frames := []tcpFrame{
		{n: n0, kind: tfPData, data: []float64{1.5, -2, math.Inf(1)},
			flips: []fault.ByteFlip{{Off: 3, Mask: 0x80}, {Off: 17, Mask: 1}},
			h:     tcpHdr{src: 0, dst: 1, tag: 4, id: 1<<32 | 7, epoch: ep, fseq: 11, cyc: 2}},
		{n: n0, kind: tfPData, data: []float64{math.NaN(), 0.25},
			h: tcpHdr{src: 0, dst: 1, tag: 5, id: 1<<32 | 8, epoch: ep, fseq: 12, cyc: 2}},
		{n: n0, kind: tfData, data: []float64{42},
			h: tcpHdr{src: 0, dst: 1, tag: 6, epoch: ep, fseq: 13}},
	}
	var want []byte
	for i, f := range frames {
		h := f.h
		h.wireSeq = seq + uint64(i) + 1
		enc := tcpconn.AppendFrame(nil, f.kind, appendDataFrame(nil, &h, f.data, f.flips))
		want = append(want, enc...)
		if i == 1 { // the dup verdict: the same frame, same sequence, twice
			want = append(want, enc...)
		}
	}
	b := (&Comm{world: w, rank: 0}).batch()
	b.tcp = append(b.tcp, frames...)
	b.flush()

	got := make([]byte, len(want))
	server.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read the batch: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch wire bytes differ from the per-frame encoding:\n got %x\nwant %x", got, want)
	}
	if n := reg.Counter(metrics.TransportWritesTotal, nil).Value(); n != 1 {
		t.Errorf("TransportWritesTotal = %d, want one write for the batch", n)
	}
	if n := reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": "net-dup"}).Value(); n != 1 {
		t.Errorf("net-dup frames = %d, want 1", n)
	}
}

// batchDsts are the destinations of rank 0's four persistent sends in the
// Startall scenario on a 3-rank tcp world: three to rank 1, so a frame
// after a dropped second one shows the gap, and one to rank 2.
var batchDsts = []int{1, 1, 1, 2}

// startallBatch returns the scenario's rank body. Rank 0 stores in writes
// the writes its Startall made; receivers check every element that landed.
// Nothing else is sent, not even a barrier: a peer's write is counted only
// after its syscall returns, so it could land inside rank 0's window.
// Frames that beat a receiver's Start park until it.
func startallBatch(t *testing.T, reg *metrics.Registry, writes *int64, dsts []int) func(*Comm) {
	return func(c *Comm) {
		const n = 6
		if c.Rank() == 0 {
			var sends []*Request
			for i, dst := range dsts {
				buf := make([]float64, n)
				for j := range buf {
					buf[j] = float64(100*i + j)
				}
				sends = append(sends, c.SendInit(dst, i, buf))
			}
			before := reg.Counter(metrics.TransportWritesTotal, nil).Value()
			Startall(sends)
			*writes = reg.Counter(metrics.TransportWritesTotal, nil).Value() - before
			Waitall(sends)
			return
		}
		var recvs []*Request
		var bufs [][]float64
		var ids []int
		for i, dst := range dsts {
			if dst == c.Rank() {
				buf := make([]float64, n)
				bufs, ids = append(bufs, buf), append(ids, i)
				recvs = append(recvs, c.RecvInit(0, i, buf))
			}
		}
		Startall(recvs)
		Waitall(recvs)
		for k, buf := range bufs {
			for j, v := range buf {
				if want := float64(100*ids[k] + j); v != want {
					t.Errorf("rank %d message %d element %d = %v, want %v", c.Rank(), ids[k], j, v, want)
				}
			}
		}
	}
}

func newBatchWorld(t *testing.T, f *fault.Injector) (*World, *metrics.Registry) {
	t.Helper()
	w, err := NewWorldOn("tcp", 3)
	if err != nil {
		t.Fatalf(`NewWorldOn("tcp", 3): %v`, err)
	}
	t.Cleanup(func() { w.Close() })
	reg := metrics.NewRegistry()
	w.SetMetrics(reg)
	if f != nil {
		w.SetFault(f)
	}
	return w, reg
}

// TestTCPStartallOneWritePerDestination: a Startall over four persistent
// sends to two destinations makes exactly two writes, and the receivers
// count every frame.
func TestTCPStartallOneWritePerDestination(t *testing.T) {
	w, reg := newBatchWorld(t, nil)
	var writes int64
	w.Run(startallBatch(t, reg, &writes, batchDsts))
	if writes != 2 {
		t.Errorf("Startall to two destinations made %d writes, want 2", writes)
	}
	if ae := w.Aborted(); ae != nil {
		t.Fatalf("run aborted: %v", ae)
	}
	want := int64(len(batchDsts))
	if got := reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": "pdata"}).Value(); got != want {
		t.Errorf("pdata frames = %d, want %d", got, want)
	}
}

// TestTCPStartallFaultsPerFrame: network faults still act on single frames
// inside a batch. A drop of rank 0's second frame (mid-batch, to rank 1)
// aborts with the lost-frame gap, and so does the drop of rank 1's last; a dup is filtered exactly once; a
// partition before the second frame to rank 1 writes the first, severs,
// redials, and every frame still arrives exactly once.
func TestTCPStartallFaultsPerFrame(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		w, reg := newBatchWorld(t, fault.New(1).WithNetDrop(0, 2))
		var writes int64
		ae := runWorldExpectAbort(t, w, 30*time.Second, startallBatch(t, reg, &writes, batchDsts))
		if !strings.Contains(ae.Error(), "lost 1 frame(s) from rank 0") {
			t.Fatalf("abort does not name the lost frame: %v", ae)
		}
	})
	// Three sends, and the dropped second is rank 1's last frame: no later
	// frame shows the gap, so the stream's heartbeat, stamped with the
	// stream's last sequence, must — within a few heartbeat intervals, not
	// at a watchdog.
	t.Run("drop-last", func(t *testing.T) {
		w, reg := newBatchWorld(t, fault.New(1).WithNetDrop(0, 2))
		var writes int64
		t0 := time.Now()
		ae := runWorldExpectAbort(t, w, 30*time.Second, startallBatch(t, reg, &writes, []int{1, 1, 2}))
		if !strings.Contains(ae.Error(), "lost 1 frame(s) from rank 0") {
			t.Fatalf("abort does not name the lost frame: %v", ae)
		}
		if d := time.Since(t0); d > 10*tcpHBInterval {
			t.Errorf("the lost last frame aborted after %v, want within a few heartbeat intervals (%v each)", d, tcpHBInterval)
		}
	})
	t.Run("dup", func(t *testing.T) {
		w, reg := newBatchWorld(t, fault.New(1).WithNetDup(0, 2))
		var writes int64
		w.Run(startallBatch(t, reg, &writes, batchDsts))
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("run aborted: %v", ae)
		}
		if got := reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": "dup-drop"}).Value(); got != 1 {
			t.Errorf("dup-drop frames = %d, want exactly 1", got)
		}
	})
	t.Run("partition", func(t *testing.T) {
		w, reg := newBatchWorld(t, fault.New(1).WithNetPartition(0, 1, 2, 30*time.Millisecond))
		var writes int64
		w.Run(startallBatch(t, reg, &writes, batchDsts))
		if ae := w.Aborted(); ae != nil {
			t.Fatalf("run aborted: %v", ae)
		}
		if writes != 3 {
			t.Errorf("Startall with a partition inside made %d writes, want 3 (before it, after the redial, rank 2)", writes)
		}
		want := int64(len(batchDsts))
		if got := reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": "pdata"}).Value(); got != want {
			t.Errorf("pdata frames = %d, want %d", got, want)
		}
		for _, kind := range []string{"dup-drop", "stale-drop"} {
			if got := reg.Counter(metrics.TransportFramesTotal, metrics.Labels{"kind": kind}).Value(); got != 0 {
				t.Errorf("%s frames = %d, want 0", kind, got)
			}
		}
		if got := reg.Counter(metrics.TransportReconnectsTotal, metrics.Labels{"rank": "0", "peer": "1"}).Value(); got < 1 {
			t.Errorf("no reconnect counted after the partition")
		}
	})
}

// TestWireWordsBothOrders holds the two payload paths to one wire form:
// the in-place byte view this host uses and the word-by-word codec a
// big-endian host uses must both yield the reference little-endian bits,
// NaN payloads included, and copy back exactly — also from an unaligned
// frame offset, as a payload sits in a received frame.
func TestWireWordsBothOrders(t *testing.T) {
	data := []float64{0, -0.0, 1.5, math.Inf(-1), math.Float64frombits(0x7ff8_dead_beef_0001), 5e-324}
	var want []byte
	for _, v := range data {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	view, _ := wireBytes(data, nil)
	if !bytes.Equal(view, want) {
		t.Fatalf("wireBytes = %x, want %x", view, want)
	}
	if got := encodeWords([]byte{9}, data)[1:]; !bytes.Equal(got, want) {
		t.Fatalf("encodeWords = %x, want %x", got, want)
	}
	frame := append([]byte{1, 2, 3}, want...) // payload at an odd offset
	for name, decode := range map[string]func([]float64, []byte){"copyWire": copyWire, "decodeWords": decodeWords} {
		got := make([]float64, len(data))
		decode(got, frame[3:])
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
				t.Errorf("%s word %d = %#x, want %#x", name, i, math.Float64bits(got[i]), math.Float64bits(data[i]))
			}
		}
	}
}
