package harness

import (
	"encoding/json"
	"testing"

	"github.com/bricklab/brick/internal/mpi/proc"
)

// FuzzWorkerEnvelope feeds hostile bytes through the path a supervisor
// takes with a rank's result file: proc.DecodeEnvelope, then rankResult's
// decode of the Result it carries, then aggregate. Every input must either
// be refused with an error or decode; none may panic. A decoded step
// histogram must agree with itself: as many observations as its buckets
// hold.
func FuzzWorkerEnvelope(f *testing.F) {
	cfg := baseConfig(Layout)
	cfg.Procs, cfg.Steps = [3]int{1, 1, 1}, 3
	res, err := Run(cfg)
	if err != nil {
		f.Fatal(err)
	}
	res.Config = Config{}
	good, err := json.Marshal(res)
	if err != nil {
		f.Fatal(err)
	}
	env, err := json.Marshal(proc.Envelope{Rank: 0, Result: good})
	if err != nil {
		f.Fatal(err)
	}
	// The committed corpus holds hostile seeds; this one follows Result.
	f.Add(env)
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := proc.DecodeEnvelope(b, 0)
		if err != nil {
			return
		}
		r, err := rankResult(cfg, e)
		if err != nil {
			return
		}
		out := aggregate(cfg, []Result{r})
		if h := out.StepHist; h.Count() != r.StepHist.Count() {
			t.Fatalf("aggregate holds %d steps of a rank's %d", h.Count(), r.StepHist.Count())
		}
		_ = out.StepHist.Quantile(0.99)
	})
}
