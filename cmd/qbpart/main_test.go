package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	partition "repro"
)

// writeTinyProblem generates a small instance and serializes it to a file,
// returning the path.
func writeTinyProblem(t *testing.T) string {
	t.Helper()
	inst, err := partition.GenerateCircuit(partition.GenerateParams{
		Spec: partition.CircuitSpec{
			Name:              "cli-test",
			Components:        40,
			Wires:             120,
			TimingConstraints: 30,
			Seed:              7,
		},
		GridRows: 2,
		GridCols: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.prob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	werr := partition.WriteProblem(f, inst.Problem)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		t.Fatal(werr)
	}
	return path
}

// TestFlagValidation: every malformed knob is a usage error (exit 2) with a
// message naming the flag — before any file is opened or work is done.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // required substring of stderr
	}{
		{"missing-in", []string{"-method", "qbp"}, "-in is required"},
		{"bad-iterations", []string{"-in", "x.prob", "-iterations", "0"}, "-iterations must be >= 1"},
		{"bad-multistart", []string{"-in", "x.prob", "-multistart", "0"}, "-multistart must be >= 1"},
		{"negative-multistart", []string{"-in", "x.prob", "-multistart", "-3"}, "-multistart must be >= 1"},
		// qbpart has no shard-count or coupling-representation flag:
		// passing either is a usage error, never silently ignored.
		{"bad-workers", []string{"-in", "x.prob", "-workers", "2"}, "flag provided but not defined: -workers"},
		{"bad-matrix", []string{"-in", "x.prob", "-matrix", "sparse"}, "flag provided but not defined: -matrix"},
		{"bad-timeout", []string{"-in", "x.prob", "-timeout", "-1s"}, "-timeout must be >= 0"},
		{"bad-progress", []string{"-in", "x.prob", "-progress", "-1s"}, "-progress must be >= 0"},
		{"unparsable-flag", []string{"-in", "x.prob", "-iterations", "many"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want it to mention %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}

	// Unknown method: flags parse, the file loads, then the switch rejects.
	prob := writeTinyProblem(t)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-in", prob, "-method", "annealer"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown method "annealer"`) {
		t.Errorf("stderr = %q, want unknown-method message", stderr.String())
	}
}

// TestReportLines: a real solve prints the report to stdout with the
// stats lines gated on the method, and progress/noise kept on stderr.
func TestReportLines(t *testing.T) {
	prob := writeTinyProblem(t)

	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-in", prob, "-method", "qbp", "-iterations", "3", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"method           qbp", "cpu  ", "iterations       ", "arcs             ", "start WL         "} {
		if !strings.Contains(out, want) {
			t.Errorf("qbp report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "stopped          true") {
		t.Errorf("un-cancelled run reports stopped:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "feasible start:") {
		t.Errorf("feasible-start line should go to stderr, got %q", stderr.String())
	}

	// Non-QBP methods have no solver stats: those lines must be absent.
	stdout.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-in", prob, "-method", "gkl", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("gkl exit = %d, stderr: %s", code, stderr.String())
	}
	out = stdout.String()
	if !strings.Contains(out, "method           gkl") {
		t.Errorf("gkl report missing method line:\n%s", out)
	}
	for _, absent := range []string{"iterations       ", "arcs             "} {
		if strings.Contains(out, absent) {
			t.Errorf("gkl report has QBP-only line %q:\n%s", absent, out)
		}
	}
}
