package netmodel

import (
	"encoding/json"
	"testing"
)

// FuzzParseProfile feeds hostile bytes to parseProfile, which LoadFile runs
// on any file passed as -machine. It must never panic; a profile it accepts
// must price every link at a non-negative cost for any transfer size, and
// come back as the same Machine from ToProfile, json.Marshal and
// parseProfile again.
//
//	go test -run '^$' -fuzz '^FuzzParseProfile$' -fuzztime 15s ./internal/netmodel/
func FuzzParseProfile(f *testing.F) {
	for _, m := range []Machine{ThetaKNL(), SummitV100(), Local()} {
		b, err := json.Marshal(ToProfile(m, "seed"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"schema":"brick-netmodel/v1","name":"measured","net":{"latency_ns":1500,"bandwidth_bps":2e9}}`))
	f.Add([]byte(`{"schema":"brick-netmodel/v1","name":"x","net":{"latency_ns":9.2233720368547748e18,"bandwidth_bps":1e-300}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := parseProfile(b)
		if err != nil {
			return
		}
		if m.Name == "" || m.PageSize <= 0 {
			t.Fatalf("accepted a machine with no name or page size: %+v", m)
		}
		for k := Network; k <= PageMigration; k++ {
			for _, n := range []int{0, 1, 1 << 20, 1 << 62} {
				if c := m.Cost(k, n); c < 0 {
					t.Fatalf("%v cost of %d bytes is %v", k, n, c)
				}
			}
		}
		out, err := json.Marshal(ToProfile(m, ""))
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", m, err)
		}
		back, err := parseProfile(out)
		if err != nil {
			t.Fatalf("re-encoded profile rejected: %v\n%s", err, out)
		}
		if back != m {
			t.Fatalf("round trip changed the machine:\n got %+v\nwant %+v", back, m)
		}
	})
}
