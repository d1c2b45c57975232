package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// TestAnalyzerGolden runs each AST analyzer over its fixture package
// and compares the rendered diagnostics against a committed golden
// file: seeded violations must be caught, and the fixtures'
// false-positive regression cases (sorted-after append, integer
// folds, closure expansion, suppression comments) must stay absent.
func TestAnalyzerGolden(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		analyzer string
		fixture  string
	}{
		{"determinism", "determtest"},
		{"determinism", "obsclock"},
		{"cachekey", "cachekeytest"},
		{"ctxhygiene", "ctxtest"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			loader, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := loader.Load("./internal/analysis/testdata/src/" + tc.fixture)
			if err != nil {
				t.Fatal(err)
			}
			a, ok := ByName(tc.analyzer)
			if !ok {
				t.Fatalf("analyzer %q not registered", tc.analyzer)
			}
			got := renderDiags(Run(pkgs, []*Analyzer{a}))
			compareGolden(t, filepath.Join("testdata", tc.fixture+".golden"), got)
		})
	}
}

// TestBCEGolden drives the real compiler over the bcetest fixture:
// the seeded in-loop check must be reported, the reslice-pinned loop
// and the allowlisted scatter must not.
func TestBCEGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build -a; skipped in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	policy, err := LoadBCEPolicy(filepath.Join("testdata", "bcetest_policy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunBCE(root, policy, "./internal/analysis/testdata/src/bcetest")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "bcetest.golden"), renderDiags(diags))
}

// TestBCEStalePolicy: a policy entry that no longer matches the code
// fails the gate instead of silently gating nothing. Each case adds one
// stale entry to the fixture's policy, which is clean on its own.
func TestBCEStalePolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build -a; skipped in -short mode")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join("testdata", "bcetest_policy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, entry, want string
	}{
		// hot was renamed: the gate would check nothing.
		{"gate", "gate bcetest.go:hotRenamed", "stale gate entry bcetest.go:hotRenamed: no such function body in ./internal/analysis/testdata/src/bcetest"},
		// Line 16 is in pinned's body but not in its loop, and line 3
		// is in no function at all.
		{"allow in function", "allow bcetest.go:16 -- moved", "stale allow entry bcetest.go:16: the line lies outside every gated innermost loop"},
		{"allow outside function", "allow bcetest.go:3 -- moved", "stale allow entry bcetest.go:3: the line lies outside every gated innermost loop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "policy.txt")
			if err := os.WriteFile(path, append(base, tc.entry+"\n"...), 0o644); err != nil {
				t.Fatal(err)
			}
			policy, err := LoadBCEPolicy(path)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := RunBCE(root, policy, "./internal/analysis/testdata/src/bcetest")
			if err != nil {
				t.Fatal(err)
			}
			// The fixture's seeded bounds check is still reported; the
			// stale entry adds one diagnostic at its policy line.
			var stale []Diagnostic
			for _, d := range diags {
				if d.File == path {
					stale = append(stale, d)
				}
			}
			wantLine := strings.Count(string(base), "\n") + 1
			if len(stale) != 1 || stale[0].Line != wantLine || !strings.HasPrefix(stale[0].Message, tc.want) {
				t.Fatalf("want one diagnostic at %s:%d starting %q, got:\n%s", path, wantLine, tc.want, renderDiags(diags))
			}
			if len(diags) != 2 {
				t.Fatalf("want the stale entry plus the fixture's seeded check, got:\n%s", renderDiags(diags))
			}
		})
	}
}

// renderDiags renders diagnostics with basenamed files so goldens are
// stable across checkouts.
func renderDiags(diags []Diagnostic) string {
	if len(diags) == 0 {
		return ""
	}
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.Base(d.File), d.Line, d.Col, d.Analyzer, d.Message)
	}
	return b.String()
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestIgnoreDirective(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//axvet:ignore determinism -- reason", []string{"determinism"}},
		{"//axvet:ignore determinism,cachekey", []string{"determinism", "cachekey"}},
		{"//axvet:ignore determinism, cachekey -- spaced", []string{"determinism", "cachekey"}},
		{"//axvet:ignore", nil},
		{"//axvet:ignore -- reason with no names", nil},
		{"// normal comment", nil},
	}
	for _, tc := range cases {
		got := ignoreDirective(tc.text)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("ignoreDirective(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestPathIn(t *testing.T) {
	scope := []string{"repro/internal/core", "repro/internal/service"}
	for path, want := range map[string]bool{
		"repro/internal/core":         true,
		"repro/internal/core/sub":     true,
		"repro/internal/corelike":     false,
		"repro/internal/defense":      false,
		"repro/internal/x/testdata/y": true, // fixtures are always in scope
		"repro/internal/service":      true,
	} {
		if got := pathIn(path, scope); got != want {
			t.Errorf("pathIn(%q) = %v, want %v", path, got, want)
		}
	}
}
