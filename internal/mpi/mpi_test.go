package mpi

import (
	"strings"
	"sync"
	"testing"

	"github.com/bricklab/brick/internal/flight"
)

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWorld(%d) did not panic", n)
				}
			}()
			NewWorld(n)
		}()
	}
}

func TestRunAllRanks(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var mu sync.Mutex
	seen := map[int]bool{}
	w.Run(func(c *Comm) {
		if c.Size() != n {
			t.Errorf("Size() = %d", c.Size())
		}
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
	})
	if len(seen) != n {
		t.Errorf("only %d ranks ran", len(seen))
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic not propagated")
		}
		ae, ok := p.(*AbortError)
		if !ok {
			t.Fatalf("panic value %T, want *AbortError", p)
		}
		if ae.Rank != 2 || ae.Value != "boom" {
			t.Errorf("AbortError = {Rank:%d Value:%v}, want {2 boom}", ae.Rank, ae.Value)
		}
		if !strings.Contains(ae.Error(), "rank 2") || !strings.Contains(ae.Error(), "boom") {
			t.Errorf("panic message %q", ae.Error())
		}
	}()
	NewWorld(4).Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
	})
}

func TestSendRecvBlocking(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			n := c.Recv(0, 7, buf)
			if n != 3 || buf[0] != 1 || buf[2] != 3 {
				t.Errorf("recv n=%d buf=%v", n, buf)
			}
		}
	})
}

func TestIsendIrecvBothOrders(t *testing.T) {
	// Whichever side posts first, the match must complete.
	for _, recvFirst := range []bool{true, false} {
		w := NewWorld(2)
		gate := make(chan struct{})
		w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				if recvFirst {
					<-gate // let rank 1 post the receive first
				}
				r := c.Isend(1, 0, []float64{42})
				r.Wait()
			} else {
				buf := make([]float64, 1)
				var r *Request
				if recvFirst {
					r = c.Irecv(0, 0, buf)
					close(gate)
				} else {
					r = c.Irecv(0, 0, buf)
				}
				if n := r.Wait(); n != 1 || buf[0] != 42 {
					t.Errorf("recvFirst=%v: n=%d buf=%v", recvFirst, n, buf)
				}
			}
		})
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]float64, 1)
			for i := 0; i < 2; i++ {
				n := c.Irecv(AnySource, AnyTag, buf).Wait()
				if n != 1 || (buf[0] != 10 && buf[0] != 20) {
					t.Errorf("wildcard recv buf=%v", buf)
				}
			}
		case 1:
			c.Send(0, 5, []float64{10})
		case 2:
			c.Send(0, 9, []float64{20})
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	// A receive for tag 2 must not match a pending tag-1 message.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			r1 := c.Isend(1, 1, []float64{1})
			r2 := c.Isend(1, 2, []float64{2})
			r1.Wait()
			r2.Wait()
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 2, buf)
			if buf[0] != 2 {
				t.Errorf("tag 2 received %v", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag 1 received %v", buf[0])
			}
		}
	})
}

func TestNonOvertaking(t *testing.T) {
	// Messages with identical (src, tag) must arrive in send order.
	const k = 50
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			reqs := make([]*Request, k)
			bufs := make([][]float64, k)
			for i := 0; i < k; i++ {
				bufs[i] = []float64{float64(i)}
				reqs[i] = c.Isend(1, 3, bufs[i])
			}
			Waitall(reqs)
		} else {
			buf := make([]float64, 1)
			for i := 0; i < k; i++ {
				c.Recv(0, 3, buf)
				if buf[0] != float64(i) {
					t.Fatalf("message %d overtaken: got %v", i, buf[0])
				}
			}
		}
	})
}

func TestWaitallNilEntries(t *testing.T) {
	Waitall([]*Request{nil, nil}) // must not panic
}

func TestSelfSend(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		buf := make([]float64, 2)
		rr := c.Irecv(0, 0, buf)
		c.Isend(0, 0, []float64{3, 4}).Wait()
		if n := rr.Wait(); n != 2 || buf[1] != 4 {
			t.Errorf("self-send n=%d buf=%v", n, buf)
		}
	})
}

func TestRecvBufferOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow not detected")
		}
	}()
	NewWorld(2).Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 8))
		} else {
			c.Recv(0, 0, make([]float64, 4))
		}
	})
}

func TestInvalidArgsPanics(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for _, f := range []func(){
			func() { c.Isend(5, 0, nil) },
			func() { c.Isend(-1, 0, nil) },
			func() { c.Isend(1, -2, nil) },
			func() { c.Irecv(7, 0, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("invalid arg did not panic")
					}
				}()
				f()
			}()
		}
	})
}

func TestCounters(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100))
			tr := c.TrafficSnapshot()
			if tr.SentMsgs != 1 || tr.SentBytes != 800 {
				t.Errorf("send counters: %d msgs %d bytes", tr.SentMsgs, tr.SentBytes)
			}
			// The snapshot drained the counters: a second snapshot is empty.
			if tr = c.TrafficSnapshot(); tr != (Traffic{}) {
				t.Errorf("snapshot did not drain: %+v", tr)
			}
		} else {
			c.Recv(0, 0, make([]float64, 100))
			tr := c.TrafficSnapshot()
			if tr.RecvMsgs != 1 || tr.RecvBytes != 800 {
				t.Errorf("recv counters: %d msgs %d bytes", tr.RecvMsgs, tr.RecvBytes)
			}
		}
	})
}

func TestShorterMessageThanBuffer(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{9})
		} else {
			buf := make([]float64, 10)
			if n := c.Recv(0, 0, buf); n != 1 {
				t.Errorf("n = %d, want 1", n)
			}
		}
	})
}

func TestManyRanksRing(t *testing.T) {
	// Each rank sends to (rank+1)%n and receives from (rank-1+n)%n.
	const n = 16
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		me := c.Rank()
		buf := make([]float64, 1)
		rr := c.Irecv((me+n-1)%n, 0, buf)
		rs := c.Isend((me+1)%n, 0, []float64{float64(me)})
		rr.Wait()
		rs.Wait()
		if int(buf[0]) != (me+n-1)%n {
			t.Errorf("rank %d got %v", me, buf[0])
		}
	})
}

// TestTraceIntegration: a blocking Send/Recv pair leaves on the flight
// rings exactly what a Chrome export of the run shows — one send-post to
// peer 1 carrying 16 bytes, one recv-post, and a wait-start/done pair on
// both ranks.
func TestTraceIntegration(t *testing.T) {
	rec := flight.New(2, 64)
	w := NewWorld(2)
	w.SetFlight(rec)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []float64{1, 2})
		} else {
			c.Recv(0, 3, make([]float64, 2))
		}
	})
	sends := ringEvents(rec.Rank(0), flight.KindSendPost)
	if len(sends) != 1 || sends[0].Peer != 1 || sends[0].Bytes != 16 {
		t.Errorf("send-posts = %+v, want one to peer 1 with 16 bytes", sends)
	}
	if recvs := ringEvents(rec.Rank(1), flight.KindRecvPost); len(recvs) != 1 {
		t.Errorf("recv-posts = %+v, want one", recvs)
	}
	for rank := 0; rank < 2; rank++ {
		starts := ringEvents(rec.Rank(rank), flight.KindWaitStart)
		dones := ringEvents(rec.Rank(rank), flight.KindWaitDone)
		if len(starts) != 1 || len(dones) != 1 {
			t.Errorf("rank %d: %d wait-starts / %d wait-dones, want 1/1", rank, len(starts), len(dones))
		}
	}
}
