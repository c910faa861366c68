package ckpt

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeEpoch spills a full epoch at step for a world of ranks and commits
// its manifest — the same sequence the harness runs behind barriers.
func writeEpoch(t *testing.T, dir string, step, ranks int) {
	t.Helper()
	for r := 0; r < ranks; r++ {
		if err := Spill(dir, sampleSnap(r, step)); err != nil {
			t.Fatalf("spill rank %d step %d: %v", r, step, err)
		}
	}
	if err := WriteManifest(dir, step, ranks); err != nil {
		t.Fatalf("manifest step %d: %v", step, err)
	}
}

// TestDiskEpochRoundTrip: a committed epoch is found by ScanDir and every
// rank's snapshot loads back bit-exact metadata.
func TestDiskEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeEpoch(t, dir, 2, 3)
	writeEpoch(t, dir, 6, 3)
	step, err := ScanDir(dir, 3)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if step != 6 {
		t.Fatalf("ScanDir = %d, want newest complete epoch 6", step)
	}
	for r := 0; r < 3; r++ {
		s, err := Load(dir, 6, r)
		if err != nil {
			t.Fatalf("Load rank %d: %v", r, err)
		}
		want := sampleSnap(r, 6)
		if s.Rank != r || s.Step != 6 || s.Digest != want.Digest || s.Degraded != want.Degraded {
			t.Fatalf("loaded %+v, want %+v", s, want)
		}
	}
}

// TestScanDirSkipsPartialEpochs: the restore contract under crashes. A
// newer epoch that is incomplete in any way — no manifest (crash before
// the commit record), a missing rank file, a torn payload, or a manifest
// describing a different world — must never be chosen; ScanDir falls back
// to the newest epoch that IS complete.
func TestScanDirSkipsPartialEpochs(t *testing.T) {
	dir := t.TempDir()
	writeEpoch(t, dir, 4, 2)

	// Crash before the manifest: all rank files present, no commit record.
	for r := 0; r < 2; r++ {
		if err := Spill(dir, sampleSnap(r, 6)); err != nil {
			t.Fatal(err)
		}
	}

	// Crash between spills: manifest landed (protocol bug or reordered
	// residue), but a rank file is missing.
	if err := Spill(dir, sampleSnap(0, 8)); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, 8, 2); err != nil {
		t.Fatal(err)
	}

	// Torn payload: complete epoch whose rank file lost its tail (CRC and
	// length checks both trip).
	writeEpoch(t, dir, 10, 2)
	torn := filepath.Join(dir, "epoch10", "rank1.ckpt")
	blob, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, blob[:len(blob)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// World-size mismatch: a 3-rank epoch is not restorable into a 2-rank
	// world even if its files are pristine.
	writeEpoch(t, dir, 12, 3)

	step, err := ScanDir(dir, 2)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if step != 4 {
		t.Fatalf("ScanDir = %d, want fallback to last complete epoch 4", step)
	}
}

// TestScanDirEmpty: no epochs (or no directory at all) means replay from
// scratch, reported as -1 without error.
func TestScanDirEmpty(t *testing.T) {
	dir := t.TempDir()
	if step, err := ScanDir(dir, 2); err != nil || step != -1 {
		t.Fatalf("empty dir: step=%d err=%v, want -1, nil", step, err)
	}
	if step, err := ScanDir(filepath.Join(dir, "nope"), 2); err != nil || step != -1 {
		t.Fatalf("missing dir: step=%d err=%v, want -1, nil", step, err)
	}
	// Only partial epochs present: still -1.
	if err := Spill(dir, sampleSnap(0, 2)); err != nil {
		t.Fatal(err)
	}
	if step, err := ScanDir(dir, 2); err != nil || step != -1 {
		t.Fatalf("partial-only dir: step=%d err=%v, want -1, nil", step, err)
	}
}

// TestLoadCrossChecks: a rank file whose decoded identity disagrees with
// its path (a copy or rename gone wrong) is rejected, not restored into
// the wrong rank.
func TestLoadCrossChecks(t *testing.T) {
	dir := t.TempDir()
	if err := Spill(dir, sampleSnap(0, 4)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "epoch4", "rank0.ckpt")
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "epoch4", "rank1.ckpt"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, 4, 1); err == nil || !strings.Contains(err.Error(), "file claims") {
		t.Fatalf("mislabeled rank file loaded: %v", err)
	}
	if _, err := Load(dir, 9, 0); err == nil {
		t.Fatal("absent epoch loaded")
	}
}

// TestRemoveEpochs: pruning below a committed step removes every older
// epoch, committed or partial, and keeps the committed one and anything
// newer; a missing directory prunes nothing.
func TestRemoveEpochs(t *testing.T) {
	dir := t.TempDir()
	writeEpoch(t, dir, 2, 2)
	writeEpoch(t, dir, 4, 2)
	if err := Spill(dir, sampleSnap(0, 3)); err != nil { // partial, older
		t.Fatal(err)
	}
	if err := Spill(dir, sampleSnap(0, 6)); err != nil { // partial, newer
		t.Fatal(err)
	}
	if err := RemoveEpochs(dir, 4); err != nil {
		t.Fatal(err)
	}
	steps, err := epochSteps(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(steps)
	if !slices.Equal(steps, []int{4, 6}) {
		t.Fatalf("epochs left = %v, want [4 6]", steps)
	}
	if step, err := ScanDir(dir, 2); err != nil || step != 4 {
		t.Fatalf("ScanDir after prune = %d, %v; want 4", step, err)
	}
	if err := RemoveEpochs(filepath.Join(dir, "absent"), 10); err != nil {
		t.Fatalf("pruning a missing dir: %v", err)
	}
}
