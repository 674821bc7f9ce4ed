package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the absolute directory holding the package's sources.
	Dir string
	// Explicit marks packages named directly on the command line, as
	// opposed to matched by a ./... pattern. Explicit packages bypass
	// analyzer scopes.
	Explicit bool
	// Files holds the parsed non-test sources in filename order. Test
	// files are outside the suite's remit (they are exercised by the test
	// suite itself) and are neither parsed nor type-checked.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// Loader lists, parses, and type-checks the packages of a single Go
// module. The go command decides which packages a pattern names and which
// files belong to each (`go list -deps -json`), so the loader sees the
// files `go build` compiles in the same environment. Module-local packages
// are type-checked from those files, dependencies first; all other imports
// go to the compiler's export data, falling back to type-checking the
// dependency from source.
type Loader struct {
	// Fset positions every file the loader touches.
	Fset *token.FileSet

	root string              // module root: the directory containing go.mod
	pkgs map[string]*Package // module-local packages, keyed by import path
	std  types.ImporterFrom  // export-data importer
	src  types.ImporterFrom  // source importer fallback
}

// NewLoader returns a loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset: token.NewFileSet(),
		root: abs,
		pkgs: make(map[string]*Package),
	}, nil
}

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Match      []string // the command-line patterns that named the package
	DepOnly    bool     // listed only as a dependency of a named package
	Module     *struct{ Main bool }
}

// Load resolves the given patterns to packages and type-checks them.
// Patterns are the go command's, resolved in the module root: "./..."
// names every package of the module (go list skips testdata, vendor, and
// directories starting with "." or "_"), "dir/..." every package beneath
// dir, and a plain directory one package. A relative pattern always names
// a directory, with or without a leading "./". Packages named by a pattern
// without "..." are marked Explicit.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range listed {
		if lp.Module == nil || !lp.Module.Main {
			continue // outside the module: imported through export data
		}
		explicit := false
		for _, m := range lp.Match {
			explicit = explicit || !strings.Contains(m, "...")
		}
		if len(lp.GoFiles) == 0 && !explicit {
			continue // test-only directory under a ... pattern
		}
		pkg, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		if lp.DepOnly {
			continue
		}
		pkg.Explicit = pkg.Explicit || explicit
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// list runs `go list -deps -json` over patterns in the module root and
// returns the packages in its order: every package after its dependencies.
// cgo is off (CGO_ENABLED=0): the loader never configures it, so files that
// need it are left out. The go binary is GOROOT's, as for the standard
// importer, because `go run` does not put it on PATH.
func (l *Loader) list(patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Match,DepOnly,Module"}
	for _, pat := range patterns {
		if !filepath.IsAbs(pat) && !build.IsLocalImport(pat) {
			pat = "./" + pat // a directory, not an import path
		}
		args = append(args, pat)
	}
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Dir = l.root
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "PWD="+l.root)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var listed []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(stdout)); dec.More(); {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// check parses and type-checks one listed module-local package. Its
// module-local imports were checked before it, in go list's order.
func (l *Loader) check(lp *listedPackage) (*Package, error) {
	if pkg, ok := l.pkgs[lp.ImportPath]; ok {
		return pkg, nil
	}
	if len(lp.GoFiles) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", lp.Dir)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(lp.ImportPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", lp.ImportPath, err)
	}
	pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[lp.ImportPath] = pkg
	return pkg, nil
}

// importNonLocal resolves a dependency outside the module: first from the
// compiler's export data (fast), then by type-checking it from source.
func (l *Loader) importNonLocal(path, dir string) (*types.Package, error) {
	if l.std == nil {
		if imp, ok := importer.Default().(types.ImporterFrom); ok {
			l.std = imp
		}
	}
	if l.std != nil {
		if pkg, err := l.std.ImportFrom(path, dir, 0); err == nil {
			return pkg, nil
		}
	}
	if l.src == nil {
		l.src = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	}
	return l.src.ImportFrom(path, dir, 0)
}

// loaderImporter adapts the loader to go/types' Importer interfaces.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, li.root, 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	return l.importNonLocal(path, dir)
}
