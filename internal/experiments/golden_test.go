package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<figure>.golden from a one-worker run")

// goldenSeed is the seed every golden is rendered at.
const goldenSeed = 42

func goldenPath(name string) string { return filepath.Join("testdata", name+".golden") }

// TestFiguresGolden is the behaviour contract of the figures: every
// registered figure, rendered at Small scale and stripped of its wall-clock
// "  measured" lines, must match its committed testdata golden byte for
// byte. The goldens come from a one-worker run (-update) and the check runs
// two workers, so one pass covers run-to-run drift, drift between commits
// and parallel parity. A figure without a golden, or a golden without a
// figure, fails too.
func TestFiguresGolden(t *testing.T) {
	names := Figures()
	if *update {
		for _, r := range RunAll(names, Small, goldenSeed, 1) {
			if err := os.WriteFile(goldenPath(r.Name), []byte(StripMeasured(r.Output)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".golden"); !slices.Contains(names, name) {
			t.Errorf("golden %s has no registered figure", f)
		}
	}
	results := RunAll(names, Small, goldenSeed, 2)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			r := results[i]
			if r.Name != name {
				t.Fatalf("result %d is figure %q, want %q", i, r.Name, name)
			}
			want, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatalf("figure has no golden (regenerate with -update): %v", err)
			}
			got := StripMeasured(r.Output)
			if got == "" {
				t.Fatal("empty output")
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n%s", goldenPath(name), firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff describes the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
