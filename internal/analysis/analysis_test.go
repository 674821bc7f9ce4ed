package analysis

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseAllowDirective(t *testing.T) {
	cases := []struct {
		comment string
		names   []string
		ok      bool
	}{
		{"//lint:allow(floatcmp)", []string{"floatcmp"}, true},
		{"//lint:allow(floatcmp) sort tie-break", []string{"floatcmp"}, true},
		{"// lint:allow(determinism, errdiscard)", []string{"determinism", "errdiscard"}, true},
		{"//lint:allow()", nil, false},
		{"// ordinary comment", nil, false},
		{"//lint:allow(unclosed", nil, false},
	}
	for _, tc := range cases {
		names, ok := parseAllowDirective(tc.comment)
		if ok != tc.ok || !reflect.DeepEqual(names, tc.names) {
			t.Errorf("parseAllowDirective(%q) = %v, %v; want %v, %v",
				tc.comment, names, ok, tc.names, tc.ok)
		}
	}
}

func TestAnalyzerScope(t *testing.T) {
	a := &Analyzer{Name: "x", Scope: []string{"internal/sim", "internal/core"}}
	if !a.appliesTo("quasar/internal/sim") {
		t.Error("scoped package not admitted")
	}
	if a.appliesTo("quasar/internal/cf") {
		t.Error("out-of-scope package admitted")
	}
	if !(&Analyzer{Name: "y"}).appliesTo("anything") {
		t.Error("empty scope must admit everything")
	}
}

// TestScopeSkipsUnscopedPackages verifies that a ./...-style (non-
// explicit) load does not run scoped analyzers outside their scope, while
// an explicit load does.
func TestScopeSkipsUnscopedPackages(t *testing.T) {
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("internal", "analysis", "testdata", "src", "determinism_bad"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || !pkgs[0].Explicit {
		t.Fatalf("expected one explicit package, got %+v", pkgs)
	}
	if diags := Run(loader.Fset, pkgs, []*Analyzer{Determinism}); len(diags) == 0 {
		t.Error("explicit load must bypass analyzer scope")
	}
	pkgs[0].Explicit = false
	if diags := Run(loader.Fset, pkgs, []*Analyzer{Determinism}); len(diags) != 0 {
		t.Errorf("non-explicit out-of-scope package produced %d diagnostics", len(diags))
	}
}

// TestLoaderWalksModule checks that ./... discovery finds the module's
// packages, skips testdata, and type-checks cross-package references.
func TestLoaderWalksModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("./... must skip testdata, found %s", p.Path)
		}
		if p.Explicit {
			t.Errorf("./... packages must not be explicit: %s", p.Path)
		}
		byPath[p.Path] = p
	}
	for _, want := range []string{"quasar", "quasar/internal/sim", "quasar/internal/core", "quasar/cmd/quasar-lint"} {
		p := byPath[want]
		if p == nil {
			t.Fatalf("package %s not discovered", want)
		}
		if p.Types == nil || p.Types.Scope().Len() == 0 {
			t.Errorf("package %s not type-checked", want)
		}
	}
}

// TestSuiteCleanOnRepository is the self-hosting check: the analyzer
// suite must report nothing on the repository itself. It mirrors the
// quasar-lint CLI exactly — same ./... load, same analyzer set.
func TestSuiteCleanOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(loader.Fset, pkgs, All()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}
