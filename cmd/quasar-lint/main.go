// Command quasar-lint runs the repository's static-analysis suite
// (internal/analysis): project-specific determinism, float-comparison,
// snapshot-drift, error-discard, lock-hygiene, and concurrent-capture
// checks built purely on the standard library's go/ast and go/types.
//
// Usage:
//
//	quasar-lint [-list] [-analyzers a,b] [patterns ...]
//
// Patterns default to "./...". Relative patterns resolve against the
// working directory, as with the go tool. A pattern ending in /... walks
// the tree beneath it (skipping testdata and vendor); analyzers then
// apply only within their configured package scopes. A plain directory pattern, e.g.
// internal/analysis/testdata/src/determinism_bad, names the package
// explicitly and runs every analyzer on it regardless of scope — which is
// how the known-bad fixtures are exercised.
//
// Diagnostics print as "file:line:col: [analyzer] message". The exit
// status is 1 when any diagnostic is reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"quasar/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	analyzerNames := flag.String("analyzers", "", "comma-separated analyzer subset to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*analyzerNames)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// go-tool convention: relative patterns resolve against the working
	// directory, so "./..." from a subdirectory covers that subtree only.
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	for i, pat := range patterns {
		dir, recursive := strings.CutSuffix(pat, "/...")
		if dir == "" || filepath.IsAbs(dir) {
			continue
		}
		dir = filepath.Join(cwd, dir)
		if recursive {
			dir += "/..."
		}
		patterns[i] = dir
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	diags := analysis.Run(loader.Fset, pkgs, analyzers)
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: [%s] %s\n",
			relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -analyzers flag against the registry.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("quasar-lint: unknown analyzer %q (see -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("quasar-lint: -analyzers selected nothing")
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("quasar-lint: no go.mod found above working directory")
		}
		dir = parent
	}
}

// relPath shortens filenames under the module root for stable, readable
// output.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) &&
		rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return rel
	}
	return file
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
