package analysis

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeModule lays out a throwaway module under a temp dir and returns its
// root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tagtest\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// loadNames loads one package from root and returns the basenames of the
// files the loader admitted.
func loadNames(t *testing.T, root, pattern string) map[string]bool {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	names := make(map[string]bool)
	for _, f := range pkgs[0].Files {
		names[filepath.Base(loader.Fset.Position(f.Pos()).Filename)] = true
	}
	return names
}

func TestLoaderExcludesTestFiles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/a.go":      "package p\n\nfunc A() int { return 1 }\n",
		"p/a_test.go": "package p\n\nthis would not even parse\n",
	})
	names := loadNames(t, root, "p")
	if !names["a.go"] || names["a_test.go"] {
		t.Errorf("got files %v, want a.go only", names)
	}
}

func TestLoaderSkipsUnderscoreAndDotFiles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"p/a.go":  "package p\n\nfunc A() int { return 1 }\n",
		"p/_b.go": "package wrong\n",
		"p/.c.go": "package wrong\n",
	})
	names := loadNames(t, root, "p")
	if !names["a.go"] || names["_b.go"] || names[".c.go"] {
		t.Errorf("got files %v, want a.go only", names)
	}
}

func TestLoaderBuildTags(t *testing.T) {
	// otherOS is a real GOOS that is not the current platform, so its files
	// must be fenced off for type-checking to succeed.
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	root := writeModule(t, map[string]string{
		"p/a.go": "package p\n\nfunc A() int { return impl() }\n",
		// Satisfied constraint: provides impl for this platform.
		"p/b.go": "//go:build " + runtime.GOOS + "\n\npackage p\n\nfunc impl() int { return 1 }\n",
		// Unsatisfied constraint: would redeclare impl and fail the build.
		"p/c.go": "//go:build " + otherOS + "\n\npackage p\n\nfunc impl() int { return 2 }\n",
		// Legacy +build syntax, unsatisfied.
		"p/d.go": "// +build " + otherOS + "\n\npackage p\n\nfunc impl() int { return 3 }\n",
		// Negated constraint, unsatisfied on this platform.
		"p/e.go": "//go:build !" + runtime.GOOS + "\n\npackage p\n\nfunc impl() int { return 4 }\n",
		// cgo files are always excluded: the loader never configures cgo.
		"p/f.go": "//go:build cgo\n\npackage p\n\nfunc impl() int { return 5 }\n",
	})
	names := loadNames(t, root, "p")
	want := map[string]bool{"a.go": true, "b.go": true}
	for n := range want {
		if !names[n] {
			t.Errorf("missing %s in loaded files %v", n, names)
		}
	}
	for _, n := range []string{"c.go", "d.go", "e.go", "f.go"} {
		if names[n] {
			t.Errorf("constraint-excluded %s was loaded: %v", n, names)
		}
	}
}

func TestLoaderFilenameSuffixes(t *testing.T) {
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	otherArch := "arm64"
	if runtime.GOARCH == "arm64" {
		otherArch = "amd64"
	}
	root := writeModule(t, map[string]string{
		"p/a.go":                                           "package p\n\nfunc A() int { return impl() }\n",
		"p/impl_" + runtime.GOOS + ".go":                   "package p\n\nfunc impl() int { return 1 }\n",
		"p/impl_" + otherOS + ".go":                        "package p\n\nfunc impl() int { return 2 }\n",
		"p/other_" + otherArch + ".go":                     "package p\n\nfunc unused() int { return 3 }\n",
		"p/both_" + otherOS + "_" + runtime.GOARCH + ".go": "package p\n\nfunc unused2() int { return 4 }\n",
		// A suffix that is not a known GOOS/GOARCH is just a name.
		"p/deep_blue.go": "package p\n\nfunc Blue() int { return 5 }\n",
	})
	names := loadNames(t, root, "p")
	if !names["a.go"] || !names["impl_"+runtime.GOOS+".go"] || !names["deep_blue.go"] {
		t.Errorf("missing expected files in %v", names)
	}
	for _, n := range []string{
		"impl_" + otherOS + ".go",
		"other_" + otherArch + ".go",
		"both_" + otherOS + "_" + runtime.GOARCH + ".go",
	} {
		if names[n] {
			t.Errorf("platform-excluded %s was loaded: %v", n, names)
		}
	}
}

func TestLoaderGeneratedCode(t *testing.T) {
	// Generated files (cgo-free) are ordinary sources: the loader must
	// parse and type-check them like hand-written code.
	root := writeModule(t, map[string]string{
		"p/a.go": "package p\n\nfunc A() string { return generatedName(0) }\n",
		"p/gen.go": "// Code generated by tagtest-gen; DO NOT EDIT.\n\npackage p\n\n" +
			"func generatedName(i int) string {\n\tswitch i {\n\tcase 0:\n\t\treturn \"zero\"\n\t}\n\treturn \"\"\n}\n",
	})
	names := loadNames(t, root, "p")
	if !names["a.go"] || !names["gen.go"] {
		t.Errorf("generated file missing from loaded set %v", names)
	}
}

func TestLoaderHonoursGOFLAGSTags(t *testing.T) {
	// go list reads -tags from GOFLAGS, so lint sees the files go build
	// compiles in the same environment.
	t.Setenv("GOFLAGS", "-tags=linttag")
	root := writeModule(t, map[string]string{
		"p/a.go":     "package p\n\nfunc A() int { return impl() }\n",
		"p/on.go":    "//go:build linttag\n\npackage p\n\nfunc impl() int { return 1 }\n",
		"p/off.go":   "//go:build !linttag\n\npackage p\n\nfunc impl() int { return 2 }\n",
		"p/other.go": "//go:build othertag\n\npackage p\n\nfunc impl() int { return 3 }\n",
	})
	names := loadNames(t, root, "p")
	if !names["a.go"] || !names["on.go"] || names["off.go"] || names["other.go"] {
		t.Errorf("got files %v, want a.go and on.go", names)
	}
}
