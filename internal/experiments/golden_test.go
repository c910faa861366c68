package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the modelled figures' golden files under testdata")

// modelledIDs are the experiments whose every number is deterministic: the
// message-count table and the GPU figures, whose times come from the
// machine model rather than a stopwatch.
var modelledIDs = []string{"table1", "table2", "fig13", "fig14", "fig15", "fig16", "fig17"}

// TestModelledGolden pins the text of every modelled table and figure at
// quick scale. A change to plans, bytes or the model that moves one of them
// fails here and names it; rerun with -update to accept the new text:
//
//	go test ./internal/experiments/ -run TestModelledGolden -update
func TestModelledGolden(t *testing.T) {
	opts := Options{Quick: true, Steps: 4, MaxRanks: 8}
	for _, id := range modelledIDs {
		t.Run(id, func(t *testing.T) {
			s, ok := ByID(id)
			if !ok {
				t.Fatalf("no experiment %s", id)
			}
			var buf bytes.Buffer
			if err := s.Run(opts, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s moved:\n--- got\n%s--- want (%s)\n%s", id, buf.Bytes(), path, want)
			}
		})
	}
}
