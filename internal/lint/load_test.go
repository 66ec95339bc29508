package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skyloft/internal/lint"
)

// writeTree materializes a temp module from a path→contents map and returns
// its root. Keys use forward slashes relative to the module root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("mkdir for %s: %v", rel, err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatalf("write %s: %v", rel, err)
		}
	}
	return root
}

func newTestLoader(t *testing.T, root string) *lint.Loader {
	t.Helper()
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

// TestLoadImportCycle checks the loader's busy-flag cycle guard: a
// module-internal import cycle must come back as a decodable error, not a
// stack overflow from unbounded recursive Import calls.
func TestLoadImportCycle(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":   "module cyc\n\ngo 1.24\n",
		"a/a.go":   "package a\n\nimport \"cyc/b\"\n\nconst A = b.B + 1\n",
		"b/b.go":   "package b\n\nimport \"cyc/a\"\n\nconst B = a.A + 1\n",
		"ok/ok.go": "package ok\n\nconst OK = 1\n",
	})
	loader := newTestLoader(t, root)

	_, err := loader.LoadDir(filepath.Join(root, "a"), "cyc/a")
	if err == nil {
		t.Fatal("loading a cyclic package succeeded, want an import-cycle error")
	}
	if !strings.Contains(err.Error(), "import cycle through cyc/a") {
		t.Errorf("cycle error = %q, want it to name the cycle entry point", err)
	}

	// The guard must poison only the cycle: an unrelated package in the
	// same module still loads through the same loader.
	pkg, err := loader.LoadDir(filepath.Join(root, "ok"), "cyc/ok")
	if err != nil {
		t.Fatalf("loading acyclic sibling after cycle error: %v", err)
	}
	if pkg.Types.Scope().Lookup("OK") == nil {
		t.Errorf("sibling package type-checked without its declarations")
	}
}

// TestLoadIncludesBuildTaggedFiles pins a deliberate loader property: build
// constraints are NOT evaluated, so a //go:build-tagged file is analyzed
// like any other. Determinism hazards must be caught on every platform's
// code paths, not just the host's.
func TestLoadIncludesBuildTaggedFiles(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":        "module tagged\n\ngo 1.24\n",
		"p/portable.go": "package p\n\nfunc Portable() int { return 1 }\n",
		"p/exotic.go":   "//go:build some_exotic_platform\n\npackage p\n\nfunc Exotic() int { return 2 }\n",
	})
	loader := newTestLoader(t, root)

	pkg, err := loader.LoadDir(filepath.Join(root, "p"), "tagged/p")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files, want 2 (build-tagged file must be included)", len(pkg.Files))
	}
	for _, fn := range []string{"Portable", "Exotic"} {
		if pkg.Types.Scope().Lookup(fn) == nil {
			t.Errorf("function %s missing from the type-checked scope", fn)
		}
	}
}

// TestLoadRejectsCgo asserts the loader stays cgo-free: import "C" is not a
// real package the GOROOT source importer can resolve, so a cgo file must
// fail loudly rather than silently producing a half-checked package.
func TestLoadRejectsCgo(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module cgomod\n\ngo 1.24\n",
		"c/c.go": "package c\n\nimport \"C\"\n\nfunc F() { _ = C.int(0) }\n",
	})
	loader := newTestLoader(t, root)

	if _, err := loader.LoadDir(filepath.Join(root, "c"), "cgomod/c"); err == nil {
		t.Fatal("loading a cgo package succeeded, want an error (loader is cgo-free by design)")
	}
}

// TestLoadSkipsNonPackageDirs checks pattern expansion: testdata, hidden and
// underscore-prefixed directories, and directories with no non-test Go files
// are all excluded from ./... walks, while nested real packages are found.
func TestLoadSkipsNonPackageDirs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                  "module walk\n\ngo 1.24\n",
		"a/a.go":                  "package a\n\nconst A = 1\n",
		"a/deep/deep.go":          "package deep\n\nconst D = 1\n",
		"a/testdata/skip.go":      "package skip\n\nfunc init() { panic(\"loaded\") }\n",
		"a/.hidden/skip.go":       "package skip\n",
		"a/_attic/skip.go":        "package skip\n",
		"a/onlytests/x_test.go":   "package onlytests\n",
		"a/deep/notes/readme.txt": "not go\n",
	})
	loader := newTestLoader(t, root)

	pkgs, err := loader.Load("./a/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"walk/a", "walk/a/deep"}
	if len(paths) != len(want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("loaded %v, want %v (import-path order)", paths, want)
		}
	}
}
