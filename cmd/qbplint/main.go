// Command qbplint runs the project's invariant-enforcing static analyzers
// (see internal/lint) over package directories.
//
// Usage:
//
//	qbplint [-enable list] [-disable list] [-list] [-format text|sarif] [pattern ...]
//
// Patterns are package directories; a trailing /... walks recursively
// (testdata, vendor and hidden directories are skipped). With no pattern,
// ./... is assumed.
//
// -format selects the report encoding on stdout: the default one-line
// text, or SARIF 2.1.0 for code-scanning upload (redirect stdout to a file;
// the exit code is unchanged).
//
// Exit codes: 0 — no diagnostics; 1 — at least one diagnostic; 2 — usage,
// load or output-write error. CI runs `qbplint ./...` and fails the build on
// any finding; justified exceptions use a //lint:ignore <analyzer> <reason>
// comment on the flagged line or the line above.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flag parsing, analyzer selection, the
// lint run and report encoding, with every byte written to the supplied
// streams and the process exit code returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qbplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list analyzers and exit")
	format := fs.String("format", "text", "report format: text or sarif")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			if _, err := fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc); err != nil {
				fmt.Fprintf(stderr, "qbplint: writing list: %v\n", err)
				return 2
			}
		}
		return 0
	}
	if *format != "text" && *format != "sarif" {
		fmt.Fprintf(stderr, "qbplint: unknown -format %q (want text or sarif)\n", *format)
		return 2
	}
	analyzers, err := lint.Select(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := lint.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := lint.Run(loader, dirs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *format == "sarif" {
		err = lint.WriteSARIF(stdout, diags, loader.ModRoot)
	} else {
		for _, d := range diags {
			if _, err = fmt.Fprintln(stdout, d); err != nil {
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "qbplint: writing report: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "qbplint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
