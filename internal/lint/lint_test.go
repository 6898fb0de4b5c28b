package lint

import (
	"fmt"
	"go/token"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes packages (including the stdlib warm-up) across every
// fixture test in this file.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// runFixture applies all analyzers to one fixture directory.
func runFixture(t *testing.T, dir string) []Diagnostic {
	t.Helper()
	diags, err := Run(testLoader(t), []string{dir}, All())
	if err != nil {
		t.Fatalf("Run(%s): %v", dir, err)
	}
	return diags
}

// keys flattens diagnostics to "analyzer:line" for compact comparison.
func keys(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d", d.Analyzer, d.Pos.Line))
	}
	return out
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		dir  string
		want []string // "analyzer:line", in Run's sorted order
	}{
		{"panic_pos", []string{"panic-in-library:9", "panic-in-library:20"}},
		{"panic_neg", nil},
		{"panic_main", nil},
		{"rand_pos", []string{"unseeded-rand:12", "unseeded-rand:17", "unseeded-rand:22"}},
		{"rand_neg", nil},
		{"index_pos", []string{"raw-index-arith:8", "raw-index-arith:10"}},
		{"index_neg", nil},
		{"floateq_pos", []string{"float-equality:6", "float-equality:11"}},
		{"floateq_neg", nil},
		{"capture_pos", []string{
			"goroutine-loop-capture:13", "goroutine-loop-capture:13", "goroutine-loop-capture:13",
			"goroutine-loop-capture:26", "goroutine-loop-capture:26",
		}},
		{"capture_neg", nil},
		{"errdiscard_pos", []string{"ignored-error:8", "ignored-error:16"}},
		{"errdiscard_neg", nil},
		{"hotalloc_pos", []string{
			"alloc-in-hot-loop:9", "alloc-in-hot-loop:19", "alloc-in-hot-loop:20",
			"alloc-in-hot-loop:32",
		}},
		{"hotalloc_neg", nil},
		{"hotalloc_cold", nil},
		{"hotalloc_interrupt", nil},
		// The CSR coupling layer's pinned profile: suppressed one-time build
		// allocation, alloc-free steady-state dirty-column reuse.
		{"hotalloc_csr", nil},
		// The multilevel hierarchy's pinned profile: suppressed once-per-level
		// contraction allocation, alloc-free steady-state sweep scratch reuse.
		{"hotalloc_hierarchy", nil},
		{"suppress_ok", nil},
		{"suppress_bad", []string{"lint:7", "panic-in-library:8", "lint:16", "panic-in-library:17"}},
		{"mod_import", nil},
		{"buildtags", nil},
		{"maporder_pos", []string{"map-order-leak:12", "map-order-leak:25", "map-order-leak:34"}},
		{"maporder_neg", nil},
		{"maporder_suppress", nil},
		{"maporder_entropy", []string{"map-order-leak:12", "map-order-leak:18", "unseeded-rand:18"}},
		{"lockbal_pos", []string{"lock-balance:15", "lock-balance:29", "lock-balance:38"}},
		{"lockbal_neg", nil},
		{"lockbal_suppress", nil},
		{"flatbounds_pos", []string{"flat-bounds:10", "flat-bounds:15", "flat-bounds:22"}},
		{"flatbounds_neg", nil},
		{"flatbounds_suppress", nil},
		// The p_test.go finding proves typed analyzers reach test files via
		// the loader's combined check (satellite: test type-checking).
		{"shadowerr_pos", []string{"shadow-err:21", "shadow-err:38", "shadow-err:56", "shadow-err:8"}},
		{"shadowerr_neg", nil},
		{"shadowerr_suppress", nil},
		// Interprocedural analyzers: call graph + summaries (PR 6).
		{"cancelpoll_pos", []string{
			"cancel-poll:17", "cancel-poll:21", "cancel-poll:24", "cancel-poll:39",
		}},
		{"cancelpoll_neg", nil},
		{"cancelpoll_bfs", nil},      // visited-guard exemption pinned by suppression
		{"cancelpoll_callback", nil}, // poll resolved through a tracked function value
		{"cancelpoll_iface", nil},    // poll resolved through CHA on an interface call
		{"intoverflow_pos", []string{
			"int-overflow:19", "int-overflow:25", "int-overflow:33", "int-overflow:34",
		}},
		{"intoverflow_neg", nil},
		{"intoverflow_launder", nil}, // slice stores drop taint at the element boundary
		{"nondetreduce_pos", []string{
			"nondet-reduce:24", "nondet-reduce:39", "nondet-reduce:53",
		}},
		{"nondetreduce_neg", nil},
		// A hot loop allocating through an unexported helper (summary-driven);
		// the exported callee and the non-allocating helper stay exempt.
		{"hotalloc_summary", []string{"alloc-in-hot-loop:29"}},
		// Result summaries prove Shifted's offset(i) in-bounds and refute
		// ShiftedAll's.
		{"flatbounds_interproc", []string{"flat-bounds:36"}},
		// Concurrency analyzers: goroutine topology + summaries (PR 8).
		{"lockset_pos", []string{"lockset-race:14", "lockset-race:32", "lockset-race:46"}},
		{"lockset_neg", nil},
		// Locks acquired through helper methods resolve via lockExitDelta.
		{"lockset_helper", []string{"lockset-race:55"}},
		// Shared-frame callbacks (Options fields, constructor-returned
		// literals) are checked through the concurrent-literal marking.
		{"lockset_closure", []string{"lockset-race:32", "lockset-race:54"}},
		{"lockset_suppress", nil},
		{"chanproto_pos", []string{
			"chan-protocol:14", "chan-protocol:21", "chan-protocol:31", "chan-protocol:42",
		}},
		{"chanproto_neg", nil}, // the multistart drain pattern is the model
		{"chanproto_suppress", nil},
		{"wgbal_pos", []string{"wg-balance:14", "wg-balance:26"}},
		{"wgbal_neg", nil},
		{"wgbal_suppress", nil},
		// One //lint:ignore naming several analyzers covers them all.
		{"conc_multi_suppress", nil},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			got := keys(runFixture(t, "testdata/src/"+tc.dir))
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("diagnostics = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestBrokenPackage checks that a package failing type-check yields a
// "typecheck" diagnostic while syntactic analyzers still run.
func TestBrokenPackage(t *testing.T) {
	diags := runFixture(t, "testdata/src/broken")
	var haveTypecheck, havePanic bool
	for _, d := range diags {
		switch d.Analyzer {
		case "typecheck":
			haveTypecheck = true
			if !strings.Contains(d.Message, "undefinedName") {
				t.Errorf("typecheck message = %q, want mention of undefinedName", d.Message)
			}
		case "panic-in-library":
			havePanic = true
			if d.Pos.Line != 7 {
				t.Errorf("panic diagnostic at line %d, want 7", d.Pos.Line)
			}
		default:
			t.Errorf("unexpected analyzer %q", d.Analyzer)
		}
	}
	if !haveTypecheck || !havePanic {
		t.Errorf("got typecheck=%v panic=%v, want both", haveTypecheck, havePanic)
	}
}

// TestNeedsTypesSkipped checks that type-dependent analyzers stay silent on a
// package without type information instead of misfiring.
func TestNeedsTypesSkipped(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load("testdata/src/broken")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if pkg.TypeErr == nil || pkg.Info != nil {
		t.Fatalf("fixture should fail type-check with nil Info; TypeErr=%v Info=%v", pkg.TypeErr, pkg.Info)
	}
	for _, a := range All() {
		if !a.NeedsTypes {
			continue
		}
		diags, err := Run(l, []string{"testdata/src/broken"}, []*Analyzer{a})
		if err != nil {
			t.Fatalf("Run(%s): %v", a.Name, err)
		}
		for _, d := range diags {
			if d.Analyzer == a.Name {
				t.Errorf("%s reported %v on an un-typed package", a.Name, d)
			}
		}
	}
}

// TestModuleImportResolution checks the loader resolved a module-internal
// import from source (mod_import imports repro/internal/geometry).
func TestModuleImportResolution(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.Load("testdata/src/mod_import")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if pkg.TypeErr != nil {
		t.Fatalf("type-check failed: %v", pkg.TypeErr)
	}
	found := false
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "repro/internal/geometry" {
			found = true
		}
	}
	if !found {
		t.Errorf("imports = %v, want repro/internal/geometry", pkg.Types.Imports())
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("", "")
	if err != nil {
		t.Fatalf("Select all: %v", err)
	}
	if len(all) != len(All()) {
		t.Errorf("Select(\"\", \"\") = %d analyzers, want %d", len(all), len(All()))
	}

	one, err := Select("float-equality", "")
	if err != nil {
		t.Fatalf("Select enable: %v", err)
	}
	if len(one) != 1 || one[0].Name != "float-equality" {
		t.Errorf("Select(float-equality) = %v", one)
	}

	rest, err := Select("", "panic-in-library, ignored-error")
	if err != nil {
		t.Fatalf("Select disable: %v", err)
	}
	if len(rest) != len(All())-2 {
		t.Errorf("disable two: got %d analyzers, want %d", len(rest), len(All())-2)
	}
	for _, a := range rest {
		if a.Name == "panic-in-library" || a.Name == "ignored-error" {
			t.Errorf("disabled analyzer %q still selected", a.Name)
		}
	}

	if _, err := Select("no-such", ""); err == nil {
		t.Error("Select(no-such) did not fail")
	}
	if _, err := Select("", "no-such"); err == nil {
		t.Error("Select(disable no-such) did not fail")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "float-equality",
		Pos:      token.Position{Filename: "a/b.go", Line: 4, Column: 7},
		Message:  "== between float expressions",
	}
	want := "a/b.go:4:7: == between float expressions [float-equality]"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestExpandPatterns(t *testing.T) {
	// Recursive walk below testdata/src finds every fixture directory.
	dirs, err := ExpandPatterns([]string{"testdata/src/..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	if len(dirs) < 15 {
		t.Errorf("found %d fixture dirs, want >= 15: %v", len(dirs), dirs)
	}

	// Walking the package itself skips testdata entirely.
	dirs, err = ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns(./...): %v", err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("recursive walk did not skip testdata: %v", dirs)
		}
	}

	// A plain directory pattern resolves to exactly itself.
	dirs, err = ExpandPatterns([]string{"testdata/src/panic_pos"})
	if err != nil {
		t.Fatalf("ExpandPatterns(dir): %v", err)
	}
	if len(dirs) != 1 || dirs[0] != "testdata/src/panic_pos" {
		t.Errorf("ExpandPatterns(dir) = %v", dirs)
	}

	// A directory without Go files is an error.
	if _, err := ExpandPatterns([]string{"testdata"}); err == nil {
		t.Error("ExpandPatterns(testdata) did not fail on a Go-less directory")
	}
}

// TestSuppressionInSameLine checks the end-of-line form of //lint:ignore.
func TestSuppressionSelfAndNextLine(t *testing.T) {
	diags := runFixture(t, "testdata/src/suppress_ok")
	if len(diags) != 0 {
		t.Errorf("suppress_ok should be clean, got %v", diags)
	}
}
