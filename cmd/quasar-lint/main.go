// Command quasar-lint runs the repository's static-analysis suite
// (internal/analysis): five project-specific analyzers — determinism
// (concurrent-capture checks included), float-comparison, snapshot-drift,
// error-discard, and lock-hygiene — built purely on the standard library's
// go/ast and go/types.
//
// Usage:
//
//	quasar-lint [-list] [patterns ...]
//
// Every analyzer of analysis.All() runs; -list prints them. Patterns
// default to "./...". Relative patterns resolve against the working
// directory, as with the go tool, and always name directories. `go list`
// resolves them and picks each package's files, so lint sees the files
// `go build` compiles in the same environment (GOOS, GOARCH,
// GOFLAGS=-tags=...; cgo off). A pattern ending in /... names every
// package beneath it (go list skips testdata and vendor); analyzers then
// apply only within their configured package scopes. A plain directory
// pattern, e.g. internal/analysis/testdata/src/determinism_bad, names the
// package explicitly and runs every analyzer on it regardless of scope —
// which is how the known-bad fixtures are exercised.
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
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
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
	diags := analysis.Run(loader.Fset, pkgs, analysis.All())
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: [%s] %s\n",
			relPath(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
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
