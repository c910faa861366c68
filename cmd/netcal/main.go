// Command netcal calibrates the network model against reality: it runs a
// ping-pong (α, the per-message startup cost) and a bandwidth sweep (β,
// sustained bytes/second) over the tcp transport's framed loopback
// streams and writes the result as a brick-netmodel/v1 profile. The
// profile loads anywhere a built-in machine name is accepted
// (-machine <path>), replacing one fictional α/β pair with a measured
// one — the ROADMAP's "calibration targets instead of fiction".
//
//	make netcal                      # writes brick-netmodel.json
//	weak -machine brick-netmodel.json ...
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
)

func main() {
	var (
		out       = flag.String("o", "brick-netmodel.json", "output profile path")
		name      = flag.String("name", "measured-loopback", "profile name recorded in the output")
		transport = flag.String("transport", "tcp", "mpi transport backend to measure — "+mpi.TransportUsage())
		pings     = flag.Int("pings", 1000, "ping-pong round trips for the α estimate")
		maxBytes  = flag.Int("max-bytes", 4<<20, "largest bandwidth-sweep message in bytes")
		batch     = flag.Int("batch", 16, "messages per timed bandwidth batch")
	)
	flag.Parse()

	alpha, beta, err := calibrate(*transport, *pings, *maxBytes, *batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcal:", err)
		os.Exit(1)
	}

	// The measured links are the network α/β; the host/GPU channels and
	// the datatype-engine cost keep the synthetic local defaults, since
	// nothing here exercises them.
	m := netmodel.Local()
	m.Name = *name
	m.Net = netmodel.Link{Latency: alpha, Bandwidth: beta}
	m.PageSize = os.Getpagesize()
	if err := netmodel.SaveFile(*out, m, "netcal "+strings.Join(os.Args[1:], " ")); err != nil {
		fmt.Fprintln(os.Stderr, "netcal:", err)
		os.Exit(1)
	}
	fmt.Printf("netcal: transport=%s α=%v β=%.3g GB/s → %s\n",
		*transport, alpha.Round(10*time.Nanosecond), beta/1e9, *out)
}

// calibrate runs both measurements on a fresh 2-rank world.
func calibrate(transport string, pings, maxBytes, batch int) (alpha time.Duration, beta float64, err error) {
	w, err := mpi.NewWorldOn(transport, 2)
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()

	alpha = pingPong(w, pings)
	beta, err = bandwidth(w, maxBytes, batch, alpha)
	if err != nil {
		return 0, 0, err
	}
	if ae := w.Aborted(); ae != nil {
		return 0, 0, fmt.Errorf("calibration world aborted: %w", ae)
	}
	return alpha, beta, nil
}

// pingPong estimates α as half the minimum round-trip time of a
// one-element message: the minimum over many trips filters scheduler
// noise, leaving the per-message floor (syscalls, framing, wakeup).
func pingPong(w *mpi.World, pings int) time.Duration {
	const warmup = 64
	best := time.Duration(1<<63 - 1)
	w.Run(func(c *mpi.Comm) {
		buf := make([]float64, 1)
		for i := 0; i < warmup+pings; i++ {
			if c.Rank() == 0 {
				start := time.Now()
				c.Send(1, 1, buf)
				c.Recv(1, 2, buf)
				if rtt := time.Since(start); i >= warmup && rtt < best {
					best = rtt
				}
			} else {
				c.Recv(0, 1, buf)
				c.Send(0, 2, buf)
			}
		}
	})
	return best / 2
}

// bandwidth estimates β by timing batches of increasingly large messages
// and fitting t(n) = a + n/β by least squares over the per-message times;
// the slope isolates the size-proportional cost from the α floor. If
// loopback timing noise defeats the fit, the largest size's direct
// estimate (n / (t - α)) is used instead.
func bandwidth(w *mpi.World, maxBytes, batch int, alpha time.Duration) (float64, error) {
	if maxBytes < 8<<10 {
		maxBytes = 8 << 10
	}
	var sizes []int
	for n := 8 << 10; n <= maxBytes; n *= 2 {
		sizes = append(sizes, n)
	}
	const reps = 3
	perMsg := make(map[int]float64, len(sizes)) // size -> seconds per message

	w.Run(func(c *mpi.Comm) {
		ack := make([]float64, 1)
		for _, n := range sizes {
			buf := make([]float64, n/8)
			samples := make([]float64, 0, reps)
			for r := 0; r < reps; r++ {
				if c.Rank() == 0 {
					start := time.Now()
					for k := 0; k < batch; k++ {
						c.Send(1, 10+k, buf)
					}
					c.Recv(1, 9, ack) // peer drained the batch
					samples = append(samples, time.Since(start).Seconds()/float64(batch))
				} else {
					for k := 0; k < batch; k++ {
						c.Recv(0, 10+k, buf)
					}
					c.Send(0, 9, ack)
				}
			}
			if c.Rank() == 0 {
				sort.Float64s(samples)
				perMsg[n] = samples[len(samples)/2] // median
			}
		}
	})

	// Least squares t = a + s*n; β = 1/s.
	var sn, st, snn, snt float64
	for _, n := range sizes {
		x, y := float64(n), perMsg[n]
		sn += x
		st += y
		snn += x * x
		snt += x * y
	}
	k := float64(len(sizes))
	den := k*snn - sn*sn
	if den > 0 {
		if slope := (k*snt - sn*st) / den; slope > 0 {
			return 1 / slope, nil
		}
	}
	nMax := sizes[len(sizes)-1]
	if t := perMsg[nMax] - alpha.Seconds(); t > 0 {
		return float64(nMax) / t, nil
	}
	return 0, fmt.Errorf("bandwidth sweep produced no usable estimate (per-message times %v)", perMsg)
}
