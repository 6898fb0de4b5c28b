// Package lint is a project-specific static-analysis framework enforcing
// solver invariants the Go compiler cannot see: library code must return
// errors rather than panic, randomized heuristics must thread an explicit
// seeded *rand.Rand, the Theorem-1 flat index r = i + j·M must come from the
// designated helpers, float64 results must not be compared with ==, error
// values must not be discarded with `_ =`, ceiling-scale int64 arithmetic
// must saturate, solver loops must poll for cancellation, and map order or
// goroutine fan-in must not leak into results.
//
// Analyzers run per package directory. Non-test files are fully type-checked
// (see Loader); in-package _test.go files get a second, combined check, and
// external test packages are parsed only. Findings can be suppressed with a
// justified comment on the offending line or the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; a malformed suppression is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned as file:line:col.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the tool's one-line output format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one invariant check.
type Analyzer struct {
	Name string // kebab-case identifier used in flags and suppressions
	Doc  string // one-line description of the enforced invariant

	// NeedsTypes restricts the analyzer to packages that type-checked;
	// with IncludeTests it sees only the in-package test files, and only
	// when their combined check succeeded (see Pass.Files).
	NeedsTypes bool
	// IncludeTests extends a syntactic analyzer to _test.go files.
	IncludeTests bool

	Run func(*Pass)
}

// Pass hands one package to one analyzer and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet

	// Prog is the interprocedural view over every package the loader has
	// seen (call graph + summaries). Nil when the driver runs an analyzer
	// in isolation; analyzers degrade to their intraprocedural behavior.
	Prog *Program

	diags *[]Diagnostic
}

// Files returns the files the analyzer should inspect: non-test files
// always, plus test files when the analyzer opts in. A typed analyzer that
// opts into tests only sees the in-package test files, and only when the
// loader managed to type-check them (see Package.TestInfo).
func (p *Pass) Files() []*ast.File {
	files := p.Pkg.Files
	if p.Analyzer.IncludeTests {
		extra := p.Pkg.TestFiles
		if p.Analyzer.NeedsTypes {
			if p.Pkg.TestInfo != nil {
				extra = p.Pkg.TestInPkg
			} else {
				extra = nil
			}
		}
		files = append(append([]*ast.File(nil), files...), extra...)
	}
	return files
}

// Info returns the type information matching Files(): the combined
// files+tests check for typed analyzers that opted into test files, the
// plain package check otherwise.
func (p *Pass) Info() *types.Info {
	if p.Analyzer.IncludeTests && p.Pkg.TestInfo != nil {
		return p.Pkg.TestInfo
	}
	return p.Pkg.Info
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the registered analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PanicInLibrary,
		UnseededRand,
		RawIndexArith,
		FloatEquality,
		IgnoredError,
		AllocInHotLoop,
		MapOrderLeak,
		FlatBounds,
		ShadowErr,
		CancelPoll,
		IntOverflow,
		NondetReduce,
	}
}

// Select resolves -enable/-disable comma lists against the registry: enable
// empty means all analyzers, otherwise only those named; disable removes
// names afterwards. Unknown names are an error.
func Select(enable, disable string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	split := func(csv string) ([]string, error) {
		var out []string
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("lint: unknown analyzer %q", name)
			}
			out = append(out, name)
		}
		return out, nil
	}
	on := make(map[string]bool)
	if names, err := split(enable); err != nil {
		return nil, err
	} else if len(names) > 0 {
		for _, n := range names {
			on[n] = true
		}
	} else {
		for n := range byName {
			on[n] = true
		}
	}
	names, err := split(disable)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		delete(on, n)
	}
	var out []*Analyzer
	for _, a := range All() {
		if on[a.Name] {
			out = append(out, a)
		}
	}
	// A selection that nets out to nothing would make the tool exit 0
	// having checked nothing — surface it as the usage error it is.
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: the -enable/-disable selection matches no analyzers")
	}
	return out, nil
}

// Run loads every directory and applies the analyzers, returning the
// surviving (unsuppressed) diagnostics sorted by position. Packages that
// fail type-checking contribute a "typecheck" diagnostic and still run the
// syntactic analyzers.
func Run(l *Loader, dirs []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	// Phase 1: load every requested directory (plus, transitively, every
	// module-internal import), so the interprocedural view below spans the
	// whole closure rather than one directory at a time.
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	prog := l.Program()
	// Phase 2: run the analyzers per package against the shared Program.
	for _, pkg := range pkgs {
		if pkg.TypeErr != nil {
			diags = append(diags, Diagnostic{
				Analyzer: "typecheck",
				Pos:      token.Position{Filename: pkg.Dir},
				Message:  pkg.TypeErr.Error(),
			})
		}
		for _, a := range analyzers {
			if a.NeedsTypes && pkg.Info == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Fset: l.Fset, Prog: prog, diags: &diags}
			a.Run(pass)
		}
		diags = applySuppressions(l.Fset, pkg, diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// ExpandPatterns resolves command-line package patterns to package
// directories: "dir" names one directory, "dir/..." (and "./...") walks
// recursively, skipping testdata, vendor, hidden and non-Go directories.
func ExpandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if root == "" || root == "." {
			root = "."
		}
		if !recursive {
			if ok, err := hasGoFiles(root); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("lint: no Go files in %s", root)
			}
			add(filepath.Clean(root))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(path); err != nil {
				return err
			} else if ok {
				add(filepath.Clean(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true, nil
		}
	}
	return false, nil
}
