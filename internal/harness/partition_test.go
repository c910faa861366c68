package harness

import (
	"math"
	"testing"

	"github.com/bricklab/brick/internal/metrics"
)

// TestPartitionedMatchesUnpartitioned runs every CPU implementation with
// -partitioned on and off and requires math.Float64bits-identical
// checksums: partition-granular Pready pipelining reorders when message
// spans hit the wire, never what they carry. The plan digest may differ
// only by the appended partition section — peers, tags, and byte counts
// must be unchanged.
func TestPartitionedMatchesUnpartitioned(t *testing.T) {
	for _, im := range cpuImpls {
		cfg := baseConfig(im)
		base, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v unpartitioned: %v", im, err)
		}
		cfg.Partitioned = true
		pres, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v partitioned: %v", im, err)
		}
		if math.Float64bits(pres.Checksum) != math.Float64bits(base.Checksum) {
			t.Errorf("%v: partitioned checksum %v != unpartitioned %v",
				im, pres.Checksum, base.Checksum)
		}
		if pres.Plan == nil || base.Plan == nil {
			t.Fatalf("%v: missing plan summary", im)
		}
		// Identical message shape either way; only the partition section of
		// the digest may differ.
		if pres.Plan.Sends != base.Plan.Sends || pres.Plan.Recvs != base.Plan.Recvs ||
			pres.Plan.SendBytes != base.Plan.SendBytes || pres.Plan.RecvBytes != base.Plan.RecvBytes ||
			pres.Plan.Variant != base.Plan.Variant {
			t.Errorf("%v: partitioning changed the message plan: %+v vs %+v",
				im, *pres.Plan, *base.Plan)
		}
		switch im {
		case Basic, Layout, MemMap, LayoutOL:
			// The overlapped brick impls compile partitioned sends: at least
			// one partition per send, and a digest that differs from the
			// unpartitioned twin in (exactly) its partition section.
			if pres.Plan.Partitions < pres.Plan.Sends {
				t.Errorf("%v: %d partitions for %d sends, want >= one per send",
					im, pres.Plan.Partitions, pres.Plan.Sends)
			}
			if pres.Plan.Digest == base.Plan.Digest {
				t.Errorf("%v: partitioned digest did not record the partition section", im)
			}
		default:
			// Grid impls and Shift ignore the flag entirely.
			if pres.Plan.Partitions != 0 {
				t.Errorf("%v: unexpected partitions %d", im, pres.Plan.Partitions)
			}
			if pres.Plan.Digest != base.Plan.Digest {
				t.Errorf("%v: digest changed with -partitioned: %s vs %s",
					im, pres.Plan.Digest, base.Plan.Digest)
			}
		}
	}
}

// TestPartitionedMetrics checks the partition instrument series: every arm
// of a partitioned plan eventually fires all its partitions — the prologue
// plus one re-arm per step except the last, so ready_total counts
// partitions × (warmup + steps) across each rank, and every Pready
// observes a lag sample.
func TestPartitionedMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := baseConfig(Layout)
	cfg.Partitioned = true
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Partitions == 0 {
		t.Fatal("partitioned Layout run recorded no partitions")
	}
	snap := reg.Snapshot()
	var ready int64
	for _, c := range snap.Counters {
		if c.Name == metrics.ExchangePartitionsReadyTotal {
			ready += c.Value
		}
	}
	// Identical plans on the periodic world: partitions per rank is rank 0's.
	want := int64(cfg.ranks()) * int64(res.Plan.Partitions) * int64(cfg.Warmup+cfg.Steps)
	if ready != want {
		t.Errorf("partitions ready = %d, want %d (%d ranks x %d partitions x %d arms)",
			ready, want, cfg.ranks(), res.Plan.Partitions, cfg.Warmup+cfg.Steps)
	}
	var lag uint64
	for _, h := range snap.Histograms {
		if h.Name == metrics.PartitionReadyLagSeconds {
			lag += h.Count
		}
	}
	if int64(lag) != ready {
		t.Errorf("lag samples = %d, want %d (one per Pready)", lag, ready)
	}
}
