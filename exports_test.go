package brick_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that no non-test code calls, each with the reason it stays: the tests
// that need it to observe other behaviour, the documented MPI-shaped
// surface, or the standard-library interface that calls it.
var exportAllowlist = map[string]string{
	// Interfaces the standard library calls.
	"MarshalJSON":   "json.Marshaler: harness.Summary encodes its unexported moments in run artifacts",
	"UnmarshalJSON": "json.Unmarshaler: harness.Summary decodes them back",
	"Unwrap":        "errors.Is/As unwrap mpi.AbortError and TimeoutError to ErrAborted/ErrWaitTimeout",

	// The MPI-shaped surface documented in docs/robustness.md,
	// docs/transports.md and DESIGN.md.
	"WaitallTimeout": "deadline wait documented in docs/robustness.md; TestWaitallTimeoutPerRequestStatus",

	// Tests need these to observe other behaviour.
	"AllIdentical":      "soak verdict: TestSoakBenignFaultsBitIdentical, TestSoakSetWithRecovery",
	"Dominant":          "critical-path phase shares: TestAnalyzeShares",
	"DomainBricks":      "decomposition shape: TestDecompRegionSizes, TestDecompMessagePlan",
	"PadBricks":         "page padding: TestPageAlignmentPadding, TestDecompInvariantsProperty",
	"FieldSlice":        "one field of brick storage: TestBrickAccessorMultiField and the stencil kernel tests",
	"FromArray":         "loads reference arrays into bricks: TestElementRoundTrip, the brick-vs-grid stencil tests",
	"ToArray":           "reads bricks back as arrays: the stencil parity and overlap stress tests",
	"FindHistograms":    "reads histograms from a snapshot: TestRunMetrics, TestWorldMetrics",
	"MustParse":         "fault specs in the fault-injection tests (TestDelayDeterminism, TestAllocFail)",
	"NeighborsOf":       "Eq. 1 incidence: TestGroupMessages3D, TestIncidenceDuality",
	"RegionsFor":        "Eq. 1 incidence: TestOppositeGhostSurfaceSymmetry, TestIncidenceDuality",
	"NumPages":          "unified-memory page table: TestPageTable",
	"ResidentOnDevice":  "unified-memory page residency: TestPageTable",
	"PersistentPending": "endpoint leak checks: TestPersistentFreeNoLeak, TestRunRecoverable_PersistentRepair, the persistent oracle",
}

// TestEveryExportHasACaller: every exported function or method declared
// under internal/ is used by name in some non-test file of the repository
// (root, cmd/, internal/, examples/, benchmark/) outside its own
// declaration, or is on exportAllowlist with a reason. An allowlist entry
// for a name that is now used, or no longer declared, fails too, so the list
// cannot go stale. Names are matched as identifiers, not per package: a
// method is kept by any use of its name.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // exported name -> "file:line" of each declaration under internal/
	uses := map[string]int{}          // identifier -> occurrences in non-test files, declarations excluded
	for root, files := range parseNonTest(t, fset, ".", "cmd", "internal", "examples", "benchmark") {
		for _, f := range files {
			decls := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls[fn.Name] = true
				if root == "internal" && fn.Name.IsExported() {
					declared[fn.Name.Name] = append(declared[fn.Name.Name], fset.Position(fn.Pos()).String())
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					uses[id.Name]++
				}
				return true
			})
		}
	}

	var unused []string
	for name, at := range declared {
		if uses[name] == 0 && exportAllowlist[name] == "" {
			slices.Sort(at)
			unused = append(unused, name+" ("+strings.Join(at, ", ")+")")
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("exported but no non-test code uses it: %s", u)
	}
	for name := range exportAllowlist {
		switch {
		case declared[name] == nil:
			t.Errorf("allowlist entry %s: no longer declared under internal/", name)
		case uses[name] > 0:
			t.Errorf("allowlist entry %s: now used by non-test code", name)
		}
	}
}

// parseNonTest parses every non-test .go file under each root, skipping
// testdata and hidden directories; the root "." stands for the repository
// root's own files only. It returns the files by root.
func parseNonTest(t *testing.T, fset *token.FileSet, roots ...string) map[string][]*ast.File {
	t.Helper()
	out := map[string][]*ast.File{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (root == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			out[root] = append(out[root], f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}
