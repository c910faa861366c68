package mpi

import (
	"encoding/json"
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
// nodes (newComm attaches lazily, so a trivial run forces it).
func newTCPTestWorld(t *testing.T) (*World, *tcpTransport) {
	t.Helper()
	w, err := NewWorldOn("tcp", 2)
	if err != nil {
		t.Fatalf(`NewWorldOn("tcp", 2): %v`, err)
	}
	t.Cleanup(func() { w.Close() })
	w.Run(func(c *Comm) { c.Barrier() })
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

	if got := n0.pendingCount(); got != 1 {
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
		p := r.op.(*tcpPers)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			p.mu.Lock()
			parked := len(p.parked)
			p.mu.Unlock()
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
