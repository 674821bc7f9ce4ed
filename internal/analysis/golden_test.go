package analysis

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current analyzer output")

// goldenCases pairs each analyzer with its known-bad and known-clean
// fixture packages under testdata/src.
var goldenCases = []struct {
	analyzer *Analyzer
	fixture  string
	wantBad  bool // known-bad fixtures must produce at least one diagnostic
}{
	{Determinism, "determinism_bad", true},
	{Determinism, "determinism_clean", false},
	{Determinism, "determinism_par_bad", true},
	{Determinism, "determinism_par_clean", false},
	{Determinism, "determinism_obs_bad", true},
	{Determinism, "determinism_obs_clean", false},
	{Determinism, "determinism_chaos_bad", true},
	{Determinism, "determinism_chaos_clean", false},
	{Determinism, "determinism_slo_bad", true},
	{Determinism, "determinism_slo_clean", false},
	{Determinism, "determinism_prof_bad", true},
	{Determinism, "determinism_prof_clean", false},
	{Determinism, "determinism_nested_bad", true},
	{Determinism, "determinism_var_bad", true},
	{FloatCmp, "floatcmp_bad", true},
	{FloatCmp, "floatcmp_clean", false},
	{SnapshotDrift, "snapshotdrift_bad", true},
	{SnapshotDrift, "snapshotdrift_clean", false},
	{ErrDiscard, "errdiscard_bad", true},
	{ErrDiscard, "errdiscard_clean", false},
	{LockCheck, "lockcheck_bad", true},
	{LockCheck, "lockcheck_clean", false},
	{Determinism, "parcapture_bad", true},
	{Determinism, "parcapture_clean", false},
	{FloatCmp, "unusedallow_bad", true},
	{FloatCmp, "unusedallow_clean", false},
}

func TestGolden(t *testing.T) {
	fset, pkgs := loadFixtures(t)
	for _, tc := range goldenCases {
		t.Run(tc.fixture, func(t *testing.T) {
			pkg := pkgs[tc.fixture]
			if pkg == nil {
				t.Fatalf("fixture %s was not loaded", tc.fixture)
			}
			got := formatDiagnostics(Run(fset, []*Package{pkg}, []*Analyzer{tc.analyzer}))
			if tc.wantBad && got == "" {
				t.Fatalf("known-bad fixture %s produced no diagnostics", tc.fixture)
			}
			if !tc.wantBad && got != "" {
				t.Fatalf("known-clean fixture %s produced diagnostics:\n%s", tc.fixture, got)
			}
			goldenPath := filepath.Join("testdata", "golden", tc.fixture+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s",
					goldenPath, got, want)
			}
		})
	}
}

// loadFixtures loads every fixture package of goldenCases with one loader
// and one Load (one go list call), keyed by fixture directory name.
func loadFixtures(t *testing.T) (*token.FileSet, map[string]*Package) {
	t.Helper()
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, tc := range goldenCases {
		dir := filepath.Join("internal", "analysis", "testdata", "src", tc.fixture)
		if !slices.Contains(dirs, dir) {
			dirs = append(dirs, dir)
		}
	}
	pkgs, err := loader.Load(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	byFixture := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		byFixture[filepath.Base(pkg.Dir)] = pkg
	}
	return loader.Fset, byFixture
}

// formatDiagnostics renders diagnostics with basenamed files, one per line.
func formatDiagnostics(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	return b.String()
}

// moduleRoot locates the repository root relative to this test's working
// directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}
