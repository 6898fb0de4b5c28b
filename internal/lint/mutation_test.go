package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The negative controls: the interprocedural analyzers must notice when the
// real repository's safety idioms are removed. Each test copies one package
// into a fresh directory, applies one textual mutation, and lints the copy —
// the module-internal imports still resolve against the real repository, so
// the copy type-checks exactly like the original.

// copyPkg copies the non-test sources of the package at relDir (relative to
// this directory) into a temp directory, applying mutate to each file's
// contents.
func copyPkg(t *testing.T, relDir string, mutate func(string) string) string {
	t.Helper()
	src := filepath.Join(strings.Split(relDir, "/")...)
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(mutate(string(data))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// copyQBP copies qbp's non-test sources into a temp directory, applying
// mutate to each file's contents.
func copyQBP(t *testing.T, mutate func(string) string) string {
	t.Helper()
	return copyPkg(t, "../qbp", mutate)
}

// mutated wraps a single-occurrence replacement and fails the test when the
// anchor text is missing, so silently-rotted mutations cannot pass.
func mutated(t *testing.T, old, new string) func(string) string {
	t.Helper()
	hit := false
	t.Cleanup(func() {
		if !hit {
			t.Fatalf("mutation anchor %q not found in copied sources", old)
		}
	})
	return func(s string) string {
		out := strings.Replace(s, old, new, 1)
		if out != s {
			hit = true
		}
		return out
	}
}

// scanMutation fails on type-check errors and reports whether analyzer fired.
func scanMutation(t *testing.T, diags []Diagnostic, analyzer string) bool {
	t.Helper()
	fired := false
	for _, d := range diags {
		if d.Analyzer == "typecheck" {
			t.Fatalf("mutated copy failed to type-check: %s", d.Message)
		}
		if d.Analyzer == analyzer {
			fired = true
		}
	}
	return fired
}

// TestMutationControl pins the baseline: an unmutated copy is lint-clean,
// so any finding in the tests below is caused by the mutation alone.
func TestMutationControl(t *testing.T) {
	dir := copyQBP(t, func(s string) string { return s })
	if diags := runFixture(t, dir); len(diags) != 0 {
		t.Errorf("unmutated qbp copy not clean: %v", keys(diags))
	}
}

// TestMutationCancelPoll deletes the Checker polls from the solver loops;
// cancel-poll must report the now-unguarded loops.
func TestMutationCancelPoll(t *testing.T) {
	dir := copyQBP(t, func(s string) string {
		return strings.ReplaceAll(s, "s.ck.Now()", "false")
	})
	diags := runFixture(t, dir)
	if !scanMutation(t, diags, "cancel-poll") {
		t.Errorf("cancel-poll silent after removing solver polls: %v", keys(diags))
	}
}

// TestMutationIntOverflow replaces one satAdd call site with a raw +;
// int-overflow must report the unguarded ceiling-scale addition.
func TestMutationIntOverflow(t *testing.T) {
	dir := copyQBP(t, mutated(t, "tot = satAdd(tot, span)", "tot = tot + span"))
	diags := runFixture(t, dir)
	if !scanMutation(t, diags, "int-overflow") {
		t.Errorf("int-overflow silent after replacing satAdd with +: %v", keys(diags))
	}
}

// TestMutationQbpartControl pins a second substrate: a copy of the qbpart
// command, which imports the module-root facade rather than internal
// packages, type-checks and lints clean outside the module tree.
func TestMutationQbpartControl(t *testing.T) {
	dir := copyPkg(t, "../../cmd/qbpart", func(s string) string { return s })
	if diags := runFixture(t, dir); len(diags) != 0 {
		t.Errorf("unmutated qbpart copy not clean: %v", keys(diags))
	}
}

// binaryGrowthProbe rides along with the textio copy: it pushes a
// hostile-header-scale count through initialCap and scales the result by a
// per-record width, the exact shape of the binary readers' section
// allocations. With the growth bound intact the product is provably small;
// without it the bound is the attacker's and the arithmetic is unbounded.
const binaryGrowthProbe = `package textio

// capProbeBytes is the lint probe for the allocation-growth cap: the
// up-front byte budget of a section must stay header-independent.
func capProbeBytes() int64 {
	hostile := int64(1) << 62 // what a forged header may declare
	capped := int64(initialCap(int(hostile)))
	return capped * 16
}
`

// copyTextio copies internal/textio plus the growth probe.
func copyTextio(t *testing.T, mutate func(string) string) string {
	t.Helper()
	dir := copyPkg(t, "../textio", mutate)
	if err := os.WriteFile(filepath.Join(dir, "probe_lint.go"), []byte(binaryGrowthProbe), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMutationGrowthCapControl: with the stream-backed growth bound in
// place, the probe's allocation math is certified by initialCap's result
// summary (through the int()/int64() conversions) and the copy is clean.
func TestMutationGrowthCapControl(t *testing.T) {
	dir := copyTextio(t, func(s string) string { return s })
	if diags := runFixture(t, dir); len(diags) != 0 {
		t.Errorf("unmutated textio copy with probe not clean: %v", keys(diags))
	}
}

// TestMutationGrowthCap removes initialCap's bound, reducing it to the
// identity: a hostile header then dictates the up-front allocation, and
// int-overflow must report the probe's unbounded scaling.
func TestMutationGrowthCap(t *testing.T) {
	dir := copyTextio(t, mutated(t,
		"if count > 1<<20 {\n\t\treturn 1 << 20\n\t}\n\treturn count",
		"return count"))
	diags := runFixture(t, dir)
	if !scanMutation(t, diags, "int-overflow") {
		t.Errorf("int-overflow silent after removing the growth bound: %v", keys(diags))
	}
}
