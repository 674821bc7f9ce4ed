// Package analysis is a small static-analysis framework built only on the
// standard library's go/ast, go/parser, go/token, and go/types. It exists
// to enforce the repository's correctness invariants — deterministic
// seeded simulation, float-comparison hygiene, snapshot-format stability,
// no silently dropped errors, mutex hygiene, and race-free writes from
// concurrent task bodies — which ordinary `go vet` does not cover.
//
// An Analyzer inspects one type-checked package at a time and reports
// Diagnostics. The driver (cmd/quasar-lint) loads the module with Loader,
// applies every registered analyzer, and prints findings as
// "file:line:col: [analyzer] message".
//
// Individual findings can be suppressed with a trailing or preceding
// comment of the form
//
//	//lint:allow(analyzer1,analyzer2) optional justification
//
// which silences the named analyzers on the comment's line and on the line
// immediately below it. Suppressions are deliberate, grep-able admissions
// that a rule is intentionally broken at one site.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the file set used to load the
// package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow()
	// suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Scope restricts the analyzer to packages whose import path contains
	// one of these substrings. An empty Scope means every package.
	// Packages named explicitly on the command line (rather than matched
	// by ./...) are always analyzed, so fixtures and one-off audits can
	// exercise scoped analyzers.
	Scope []string
	// Run inspects the package in pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// appliesTo reports whether the analyzer's scope admits the package.
func (a *Analyzer) appliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

// All returns the repository's analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, FloatCmp, SnapshotDrift, ErrDiscard, LockCheck, ParCapture}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies analyzers to pkgs, honoring analyzer scopes and
// //lint:allow suppressions, and returns diagnostics sorted by position
// then analyzer name.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(fset, pkg)
		var ran []*Analyzer
		for _, a := range analyzers {
			if !pkg.Explicit && !a.appliesTo(pkg.Path) {
				continue
			}
			ran = append(ran, a)
			pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if !sup.allows(d) {
					out = append(out, d)
				}
			}
		}
		out = append(out, sup.unused(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// directive is one //lint:allow(...) comment with per-name usage tracking:
// a directive that suppresses nothing is itself a finding (stale
// suppressions would silently mask future regressions).
type directive struct {
	pos   token.Position
	names []string
	used  map[string]bool
}

// suppressions indexes a package's //lint:allow directives by the lines
// they cover: the directive's own line (trailing comments) and the line
// below it (comments on their own line above the offending statement).
type suppressions struct {
	byLine map[string]map[int][]*directive
	all    []*directive
}

// allows reports whether some directive covers d, marking the matching
// name used. The special name "*" allows every analyzer.
func (s *suppressions) allows(d Diagnostic) bool {
	lines := s.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, dir := range lines[d.Pos.Line] {
		for _, name := range dir.names {
			if name == d.Analyzer || name == "*" {
				dir.used[name] = true
				hit = true
			}
		}
	}
	return hit
}

// unused reports a diagnostic for every directive name that named one of
// the analyzers that actually ran here yet suppressed nothing. Names of
// analyzers outside this run (a partial -analyzers invocation, a
// single-analyzer golden test) are left alone — absence of findings proves
// nothing when the analyzer never looked.
func (s *suppressions) unused(ran []*Analyzer) []Diagnostic {
	ranNames := make(map[string]bool, len(ran))
	for _, a := range ran {
		ranNames[a.Name] = true
	}
	var out []Diagnostic
	for _, dir := range s.all {
		for _, name := range dir.names {
			if dir.used[name] {
				continue
			}
			if name == "*" {
				if len(dir.used) == 0 && len(ran) > 0 {
					out = append(out, Diagnostic{
						Pos:      dir.pos,
						Analyzer: "unusedallow",
						Message:  "unused //lint:allow(*) suppression: no analyzer reports anything here; remove the stale annotation",
					})
				}
				continue
			}
			if !ranNames[name] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "unusedallow",
				Message: fmt.Sprintf("unused //lint:allow(%s) suppression: %s reports nothing here; remove the stale annotation",
					name, name),
			})
		}
	}
	return out
}

func (s *suppressions) add(dir *directive) {
	if s.byLine == nil {
		s.byLine = make(map[string]map[int][]*directive)
	}
	lines := s.byLine[dir.pos.Filename]
	if lines == nil {
		lines = make(map[int][]*directive)
		s.byLine[dir.pos.Filename] = lines
	}
	lines[dir.pos.Line] = append(lines[dir.pos.Line], dir)
	lines[dir.pos.Line+1] = append(lines[dir.pos.Line+1], dir)
	s.all = append(s.all, dir)
}

// collectSuppressions scans every comment in the package for
// //lint:allow(...) directives.
func collectSuppressions(fset *token.FileSet, pkg *Package) *suppressions {
	sup := &suppressions{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				sup.add(&directive{
					pos:   fset.Position(c.Pos()),
					names: names,
					used:  make(map[string]bool),
				})
			}
		}
	}
	return sup
}

// parseAllowDirective extracts the analyzer names from a
// "//lint:allow(a,b) reason" comment. It returns ok=false for any other
// comment.
func parseAllowDirective(text string) (names []string, ok bool) {
	body, found := strings.CutPrefix(text, "//")
	if !found {
		return nil, false
	}
	body = strings.TrimSpace(body)
	body, found = strings.CutPrefix(body, "lint:allow(")
	if !found {
		return nil, false
	}
	rparen := strings.IndexByte(body, ')')
	if rparen < 0 {
		return nil, false
	}
	for _, name := range strings.Split(body[:rparen], ",") {
		name = strings.TrimSpace(name)
		if name != "" {
			names = append(names, name)
		}
	}
	return names, len(names) > 0
}
