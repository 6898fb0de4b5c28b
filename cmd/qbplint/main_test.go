package main

import (
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
)

const fixtures = "../../internal/lint/testdata/src"

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
		{"unknown analyzer", []string{"-enable", "no-such", fixtures + "/panic_neg"}, 2},
		{"unknown analyzer in disable", []string{"-disable", "no-such", fixtures + "/panic_neg"}, 2},
		{"empty selection", []string{"-enable", "panic-in-library", "-disable", "panic-in-library", fixtures + "/panic_pos"}, 2},
		{"unknown format", []string{"-format", "xml", fixtures + "/panic_neg"}, 2},
		{"missing dir", []string{fixtures + "/does-not-exist"}, 2},
		{"positive fixture", []string{fixtures + "/panic_pos"}, 1},
		{"positive as sarif", []string{"-format", "sarif", fixtures + "/panic_pos"}, 1},
		{"clean fixture", []string{fixtures + "/panic_neg"}, 0},
		{"disabled analyzer", []string{"-disable", "panic-in-library", fixtures + "/panic_pos"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args, io.Discard, io.Discard); got != tc.want {
				t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestRunStreams pins the seam contract: diagnostics and usage errors go to
// the stderr the caller supplied, reports and listings to the stdout, so a
// selection mistake is never a silent no-op run.
func TestRunStreams(t *testing.T) {
	var out, errs strings.Builder
	if got := run([]string{"-enable", "no-such"}, &out, &errs); got != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", got)
	}
	if !strings.Contains(errs.String(), `unknown analyzer "no-such"`) {
		t.Errorf("stderr %q does not name the unknown analyzer", errs.String())
	}

	out.Reset()
	errs.Reset()
	if got := run([]string{"-enable", "panic-in-library", "-disable", "panic-in-library"}, &out, &errs); got != 2 {
		t.Fatalf("empty selection exited %d, want 2", got)
	}
	if !strings.Contains(errs.String(), "matches no analyzers") {
		t.Errorf("stderr %q does not explain the empty selection", errs.String())
	}

	out.Reset()
	errs.Reset()
	if got := run([]string{"-list"}, &out, &errs); got != 0 {
		t.Fatalf("-list exited %d, want 0", got)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{
		"panic-in-library", "unseeded-rand", "raw-index-arith", "float-equality",
		"ignored-error", "alloc-in-hot-loop", "map-order-leak", "flat-bounds",
		"shadow-err", "cancel-poll", "int-overflow", "nondet-reduce",
	}
	if !slices.Equal(names, want) || errs.Len() != 0 {
		t.Errorf("-list printed %v (stderr %q), want %v", names, errs.String(), want)
	}
}

// failWriter refuses every write, like stdout redirected to a full disk.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestReportWriteError: a report or listing that cannot be written is a
// tool failure (exit 2), never the findings exit 1 or a silent 0.
func TestReportWriteError(t *testing.T) {
	if got := run([]string{"-list"}, failWriter{}, io.Discard); got != 2 {
		t.Errorf("-list into a failing stdout exited %d, want 2", got)
	}
	if testing.Short() {
		t.Skip("each run re-warms the source importer")
	}
	for _, format := range []string{"text", "sarif"} {
		var errs strings.Builder
		if got := run([]string{"-format", format, fixtures + "/panic_pos"}, failWriter{}, &errs); got != 2 {
			t.Errorf("-format %s into a failing stdout exited %d, want 2", format, got)
		}
		if !strings.Contains(errs.String(), "no space left on device") {
			t.Errorf("-format %s: stderr %q does not carry the write error", format, errs.String())
		}
	}
}

// TestPositiveFixturesFail asserts the exit-code contract on every analyzer's
// positive fixture.
func TestPositiveFixturesFail(t *testing.T) {
	if testing.Short() {
		t.Skip("each run re-warms the source importer")
	}
	for _, dir := range []string{
		"rand_pos", "index_pos", "floateq_pos", "errdiscard_pos",
		"maporder_pos", "flatbounds_pos", "shadowerr_pos",
	} {
		if got := run([]string{fixtures + "/" + dir}, io.Discard, io.Discard); got != 1 {
			t.Errorf("run(%s) = %d, want 1", dir, got)
		}
	}
}

// TestSARIFOnStdout checks -format sarif writes a parseable report to
// stdout without changing the exit code, so `> qbplint.sarif` is the whole
// code-scanning recipe.
func TestSARIFOnStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("each run re-warms the source importer")
	}
	var out strings.Builder
	if got := run([]string{"-format", "sarif", fixtures + "/panic_pos"}, &out, io.Discard); got != 1 {
		t.Errorf("run -format sarif exited %d, want 1", got)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out.String()), &log); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Errorf("unexpected SARIF shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
}
