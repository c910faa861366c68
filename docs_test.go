package brick_test

import (
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsListEveryCommand: the cmd/ block of README.md's layout tree and
// the cmd/ rows of DESIGN.md's inventory table name exactly the commands
// `go list ./cmd/...` builds, so a deleted command cannot stay documented
// and a new one cannot go undocumented.
func TestDocsListEveryCommand(t *testing.T) {
	out, err := exec.Command("go", "list", "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list ./cmd/...: %v", err)
	}
	var want []string
	for _, pkg := range strings.Fields(string(out)) {
		want = append(want, pkg[strings.LastIndex(pkg, "/")+1:])
	}
	slices.Sort(want)

	check := func(doc string, got []string) {
		t.Helper()
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists commands %v; go list ./cmd/... has %v", doc, got, want)
		}
	}
	check("README.md", readmeCommands(t))
	design := readFile(t, "DESIGN.md")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `cmd/(\\w+)`").FindAllStringSubmatch(design, -1) {
		rows = append(rows, m[1])
	}
	check("DESIGN.md", rows)
}

// TestDocsListEveryEnvVar: every BRICK_* environment variable that non-test
// code under cmd/ and internal/ names is mentioned in README.md, DESIGN.md
// or docs/*.md, and every BRICK_* name those documents mention is one the
// code names, so a setting cannot be undocumented and a deleted one cannot
// stay documented.
func TestDocsListEveryEnvVar(t *testing.T) {
	envName := regexp.MustCompile(`BRICK_[A-Z0-9_]*[A-Z0-9]`)
	envLit := regexp.MustCompile("^" + envName.String() + "$")
	code := map[string]bool{}
	for _, files := range parseNonTest(t, token.NewFileSet(), "cmd", "internal") {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil && envLit.MatchString(v) {
						code[v] = true
					}
				}
				return true
			})
		}
	}
	docs := map[string][]string{} // name -> documents mentioning it
	paths, _ := filepath.Glob("docs/*.md")
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, paths...) {
		for _, name := range envName.FindAllString(readFile(t, doc), -1) {
			if !slices.Contains(docs[name], doc) {
				docs[name] = append(docs[name], doc)
			}
		}
	}
	for name := range code {
		if docs[name] == nil {
			t.Errorf("%s is read by the code but no document mentions it", name)
		}
	}
	for name, in := range docs {
		if !code[name] {
			t.Errorf("%s is mentioned in %v but no code reads it", name, in)
		}
	}
}

// readmeCommands returns the names in README.md's layout tree under its
// "cmd/" line: each entry starts with a name indented two spaces, and its
// description may continue on lines indented further. The block ends at the
// first line indented less.
func readmeCommands(t *testing.T) []string {
	lines := strings.Split(readFile(t, "README.md"), "\n")
	i := slices.Index(lines, "cmd/")
	if i < 0 {
		t.Fatal(`README.md has no "cmd/" line in its layout tree`)
	}
	var names []string
	for _, l := range lines[i+1:] {
		if !strings.HasPrefix(l, "  ") {
			break
		}
		if len(l) > 2 && l[2] != ' ' {
			names = append(names, strings.Fields(l)[0])
		}
	}
	return names
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
