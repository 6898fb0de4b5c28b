package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// buildCtx evaluates //go:build constraints and _GOOS/_GOARCH filename
// suffixes for the default build context when selecting package files.
var buildCtx = build.Default

// Package is one loaded, parsed and (best-effort) type-checked package
// directory. Non-test files carry full type information; in-package
// _test.go files get types through a second combined check (TestInfo),
// external-test-package files are parsed only.
type Package struct {
	Dir        string      // absolute directory
	ImportPath string      // module-relative import path, or Dir for out-of-module code
	Name       string      // package name of the non-test files ("" if none)
	Files      []*ast.File // non-test files, sorted by file name
	TestFiles  []*ast.File // _test.go files (internal and external test package)
	TestInPkg  []*ast.File // the subset of TestFiles in the package itself (not package foo_test)
	Types      *types.Package
	Info       *types.Info // covers Files only; nil when type-checking failed
	TypeErr    error       // first type-checking error, if any

	// TestInfo covers Files plus TestInPkg, so typed analyzers that opt
	// into test files see real type information there. It is nil when that
	// check failed (TestTypeErr); the fallback is the parse-only treatment
	// test files always had.
	TestInfo    *types.Info
	TestTypeErr error

	cfgs map[*ast.BlockStmt]*CFG // per-function CFG cache (see CFG)
}

// CFG returns the memoized control-flow graph of one function body in this
// package, shared by every dataflow analyzer.
func (p *Package) CFG(body *ast.BlockStmt) *CFG {
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.BlockStmt]*CFG)
	}
	g, ok := p.cfgs[body]
	if !ok {
		g = BuildCFG(body)
		p.cfgs[body] = g
	}
	return g
}

// IsCommand reports whether the package is a main package.
func (p *Package) IsCommand() bool { return p.Name == "main" }

// Loader parses and type-checks package directories using only the standard
// library. Imports inside the enclosing module are resolved recursively from
// source; everything else is delegated to the stdlib source importer. All
// results are memoized, so a whole-repository run type-checks each package
// (and each stdlib dependency) once.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // directory containing go.mod
	ModPath string // module path declared in go.mod

	std     types.ImporterFrom
	pkgs    map[string]*Package // by absolute dir
	loading map[string]bool     // cycle guard, by absolute dir

	prog    *Program // memoized interprocedural view (see callgraph.go)
	progGen int      // len(pkgs) when prog was built
}

// NewLoader creates a loader for the module whose root directory contains
// go.mod. dir may be any directory inside the module; the root is found by
// walking upward.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, path, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: path,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the module
// root and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// importPath maps an absolute directory to its import path within the
// module; directories outside the module keep their path as a synthetic
// import path (testdata fixtures).
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return dir
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// moduleDir inverts importPath for paths inside the module.
func (l *Loader) moduleDir(path string) (string, bool) {
	if path == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load from
// source via the loader itself, everything else falls through to the stdlib
// source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.moduleDir(path); ok {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		if pkg.TypeErr != nil {
			return nil, pkg.TypeErr
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// Load parses and type-checks the package in dir (memoized).
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	pkg, err := l.load(abs)
	if err != nil {
		return nil, err
	}
	l.pkgs[abs] = pkg
	return pkg, nil
}

func (l *Loader) load(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		// Honor //go:build constraints and filename suffixes for the
		// default context, like the go tool: without this, mutually
		// exclusive files (e.g. a race / !race pair) type-check together
		// and report a bogus redeclaration. On error, keep the file so
		// the parser reports the problem with a position.
		if ok, merr := buildCtx.MatchFile(dir, e.Name()); merr == nil && !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	pkg := &Package{Dir: dir, ImportPath: l.importPath(dir)}
	for _, name := range names {
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, fmt.Errorf("lint: %w", perr)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
			continue
		}
		pkg.Files = append(pkg.Files, f)
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
	}
	for _, f := range pkg.TestFiles {
		if pkg.Name != "" && f.Name.Name == pkg.Name {
			pkg.TestInPkg = append(pkg.TestInPkg, f)
		}
	}
	if len(pkg.Files) == 0 {
		return pkg, nil // test-only directory: syntactic analysis only
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(pkg.ImportPath, l.Fset, pkg.Files, info)
	pkg.Types = tpkg
	if firstErr == nil {
		firstErr = err // e.g. an import that failed to load
	}
	if firstErr != nil {
		pkg.TypeErr = firstErr
		pkg.Info = nil
	} else {
		pkg.Info = info
	}
	l.checkTestFiles(pkg)
	return pkg, nil
}

// checkTestFiles type-checks Files together with the in-package test files
// into pkg.TestInfo. The combined check is separate from the export check
// so importers of the package never see test-only symbols; when it fails
// (build-tagged helpers, generated code, ...) the package silently falls
// back to the parse-only treatment of test files.
func (l *Loader) checkTestFiles(pkg *Package) {
	if pkg.Info == nil || len(pkg.TestInPkg) == 0 {
		return
	}
	files := append(append([]*ast.File(nil), pkg.Files...), pkg.TestInPkg...)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	_, err := conf.Check(pkg.ImportPath, l.Fset, files, info)
	if firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		pkg.TestTypeErr = firstErr
		return
	}
	pkg.TestInfo = info
}
