package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	Path  string // import path, e.g. "skyloft/internal/core"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, in file-name order
	Types *types.Package
	Info  *types.Info

	// loader is the Loader that produced this package. The type-aware
	// analyzers use it to reach the ASTs and annotations of module-internal
	// dependencies (whole-program view): every module import resolved during
	// type-checking is cached in the loader, so dependency source is already
	// parsed by the time an analyzer asks for it.
	loader *Loader
}

// Loaded returns the already-loaded package for a module-internal import
// path, or nil when the path is external (stdlib) or was never imported.
// It never triggers a new load: analyzers only reason about source the
// type-checker already pulled in.
func (l *Loader) Loaded(path string) *Package {
	if res, ok := l.pkgs[path]; ok && !res.busy && res.err == nil {
		return res.pkg
	}
	return nil
}

// Loader loads module packages from source and type-checks them with no
// toolchain or network dependency: module-internal imports resolve against
// the module root, standard-library imports are compiled from GOROOT source
// (importer "source"). Test files are never loaded — wall-clock deadlines
// and ad-hoc goroutines are legitimate in tests.
type Loader struct {
	ModRoot string // absolute module root (directory containing go.mod)
	ModPath string // module path from go.mod
	Fset    *token.FileSet

	std  types.Importer
	pkgs map[string]*loadResult // keyed by import path

	// Memoized results of the type-aware analysis: ownership annotations
	// keyed by import path, and method mutation verdicts (shared across
	// packages — *types.Func identity is loader-wide).
	annots  map[string]*annots
	mutMemo map[*types.Func]mutVerdict
}

type loadResult struct {
	pkg  *Package
	err  error
	busy bool // import-cycle guard
}

// NewLoader builds a loader rooted at modRoot, which must contain go.mod.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePathOf(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: abs,
		ModPath: modPath,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*loadResult{},
		annots:  map[string]*annots{},
		mutMemo: map[*types.Func]mutVerdict{},
	}, nil
}

// FindModRoot walks up from dir to the nearest directory containing go.mod.
func FindModRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

func modulePathOf(modRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module directive", modRoot)
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else is delegated to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load loads every package matching the given module-relative patterns.
// "./x/..." walks recursively; "./x" is a single directory. Directories
// named "testdata" and hidden or underscore-prefixed directories are
// skipped, as are directories with no non-test Go files. Results come back
// in import-path order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(l.ModRoot, filepath.FromSlash(rest))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			dirs = append(dirs, filepath.Join(l.ModRoot, filepath.FromSlash(pat)))
		}
	}
	var pkgs []*Package
	for _, dir := range dirs {
		if !l.hasGoFiles(dir) {
			continue
		}
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.ModPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isLintableGoFile(e.Name()) {
			return true
		}
	}
	return false
}

func isLintableGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// LoadDir parses and type-checks the package in dir under the given import
// path. The import path does not have to match the directory's position in
// the module — the fixture harness loads testdata packages under synthetic
// in-scope paths.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if res, ok := l.pkgs[importPath]; ok {
		if res.busy {
			return nil, fmt.Errorf("import cycle through %s", importPath)
		}
		return res.pkg, res.err
	}
	res := &loadResult{busy: true}
	l.pkgs[importPath] = res
	res.pkg, res.err = l.loadDir(dir, importPath)
	res.busy = false
	return res.pkg, res.err
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isLintableGoFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := &types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v (and %d more)", importPath, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{
		Path:   importPath,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}, nil
}
