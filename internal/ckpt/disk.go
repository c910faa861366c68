package ckpt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Disk layout for cross-process restart. Each committed epoch lives in its
// own directory:
//
//	<dir>/epoch<step>/rank<N>.ckpt   one brick-ckpt/v1 snapshot per rank
//	<dir>/epoch<step>/MANIFEST.json  written LAST, after every rank file
//
// Every file lands via write-to-temp + rename, so a crash mid-write leaves
// a *.tmp orphan, never a torn file under the final name. The manifest is
// the commit record: an epoch directory without one (or with rank files
// that fail CRC) is a partial epoch — a crash struck between the first
// spill and the manifest rename — and restore skips it in favor of the
// newest epoch that IS complete. ScanDir re-verifies every rank file even
// under a manifest, because the manifest proves the writes were issued in
// order, not that the bytes survived.

// manifestName is the per-epoch commit record filename.
const manifestName = "MANIFEST.json"

// Manifest records what a complete epoch contains. Its presence marks the
// epoch committed; its fields let a reader cross-check without guessing.
type Manifest struct {
	Step  int `json:"step"`
	Ranks int `json:"ranks"`
}

// epochDir names the directory for one epoch under dir.
func epochDir(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("epoch%d", step))
}

// rankFile names one rank's snapshot file inside an epoch directory.
func rankFile(dir string, step, rank int) string {
	return filepath.Join(epochDir(dir, step), fmt.Sprintf("rank%d.ckpt", rank))
}

// writeAtomic writes data to path via a same-directory temp file + rename,
// so readers never observe a partially written file under the final name.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Spill writes one rank's snapshot to dir/epoch<step>/rank<N>.ckpt
// atomically. Ranks spill concurrently into the same epoch directory; the
// epoch only counts as committed once WriteManifest lands.
func Spill(dir string, s *Snapshot) error {
	d := epochDir(dir, s.Step)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return fmt.Errorf("ckpt: spill: %w", err)
	}
	if err := writeAtomic(rankFile(dir, s.Step, s.Rank), s.Encode()); err != nil {
		return fmt.Errorf("ckpt: spill rank %d step %d: %w", s.Rank, s.Step, err)
	}
	return nil
}

// WriteManifest commits the epoch at step: it must be called only after
// every rank's Spill for that step has returned (the harness runs it on
// rank 0 after a post-spill barrier). The manifest file is the epoch's
// commit point — written atomically, strictly after the payload files.
func WriteManifest(dir string, step, ranks int) error {
	mj, err := json.Marshal(Manifest{Step: step, Ranks: ranks})
	if err != nil {
		return fmt.Errorf("ckpt: manifest: %w", err)
	}
	if err := writeAtomic(filepath.Join(epochDir(dir, step), manifestName), mj); err != nil {
		return fmt.Errorf("ckpt: manifest step %d: %w", step, err)
	}
	return nil
}

// Load reads and CRC-verifies one rank's snapshot from the epoch at step.
func Load(dir string, step, rank int) (*Snapshot, error) {
	data, err := os.ReadFile(rankFile(dir, step, rank))
	if err != nil {
		return nil, fmt.Errorf("ckpt: load rank %d step %d: %w", rank, step, err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load rank %d step %d: %w", rank, step, err)
	}
	if s.Rank != rank || s.Step != step {
		return nil, fmt.Errorf("ckpt: load rank %d step %d: file claims rank %d step %d", rank, step, s.Rank, s.Step)
	}
	return s, nil
}

// ScanDir finds the newest COMPLETE epoch under dir for a world of ranks:
// the largest step whose directory holds a valid manifest (matching step
// and world size) and a Decode-able snapshot for every rank. Partial
// epochs — missing manifest, missing rank file, torn or corrupt payload —
// are skipped, falling back to the next-newest complete one. Returns -1
// when no complete epoch exists (restore then replays from step zero).
// Skipping is silent by design: a partial epoch is the expected residue of
// a crash mid-checkpoint, not an error.
func ScanDir(dir string, ranks int) (step int, err error) {
	steps, err := epochSteps(dir)
	if err != nil {
		return -1, err
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	for _, st := range steps {
		if epochComplete(dir, st, ranks) {
			return st, nil
		}
	}
	return -1, nil
}

// RemoveEpochs deletes every epoch directory under dir whose step is below
// before, committed or not. The harness calls it with the step it just
// committed, so the directory holds at most the newest complete epoch and
// a partial one being written after it; with math.MaxInt it wipes the
// epochs an earlier run left behind.
func RemoveEpochs(dir string, before int) error {
	steps, err := epochSteps(dir)
	if err != nil {
		return err
	}
	for _, st := range steps {
		if st < before {
			if err := os.RemoveAll(epochDir(dir, st)); err != nil {
				return fmt.Errorf("ckpt: remove epoch %d: %w", st, err)
			}
		}
	}
	return nil
}

// epochSteps lists the steps of the epoch directories under dir, in
// directory order; a missing dir holds none.
func epochSteps(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: scan %s: %w", dir, err)
	}
	var steps []int
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "epoch") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "epoch"))
		if err != nil || n < 0 {
			continue
		}
		steps = append(steps, n)
	}
	return steps, nil
}

// epochComplete reports whether the epoch at step is fully committed and
// intact: manifest present and consistent, every rank file decodes.
func epochComplete(dir string, step, ranks int) bool {
	mdata, err := os.ReadFile(filepath.Join(epochDir(dir, step), manifestName))
	if err != nil {
		return false
	}
	var m Manifest
	if err := json.Unmarshal(mdata, &m); err != nil || m.Step != step || m.Ranks != ranks {
		return false
	}
	for r := 0; r < ranks; r++ {
		if _, err := Load(dir, step, r); err != nil {
			return false
		}
	}
	return true
}
