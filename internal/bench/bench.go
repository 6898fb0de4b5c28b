// Package bench reproduces the paper's evaluation (§5): the seven
// industrial circuits of Table I partitioned onto 16 slots under the total
// Manhattan wire-length metric, comparing QBP (100 iterations) against the
// two interchange baselines GFM (run to convergence) and GKL (cut off after
// 6 outer passes), without (Table II) and with (Table III) timing
// constraints. All three methods share one initial feasible solution
// produced, as in the paper, by QBP with the B matrix zeroed.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/kl"
	"repro/internal/model"
	"repro/internal/qbp"
	"repro/internal/validate"
)

// Config selects what to run.
type Config struct {
	// Timing false reproduces Table II (constraints relaxed), true
	// reproduces Table III.
	Timing bool
	// Circuits names the instances; nil means all seven paper circuits.
	Circuits []string
	// QBPIterations defaults to the paper's 100.
	QBPIterations int
	// KLMaxPasses defaults to the paper's cutoff of 6.
	KLMaxPasses int
	// Seed drives the initial-solution generation.
	Seed int64
}

// MethodResult is one method's outcome on one circuit.
type MethodResult struct {
	WireLength int64
	Improve    float64 // percent reduction from the start
	CPU        time.Duration
	Feasible   bool
}

// Row is one circuit's line of Table II or III.
type Row struct {
	Circuit string
	Start   int64
	QBP     MethodResult
	GFM     MethodResult
	GKL     MethodResult
}

func (c *Config) defaults() {
	if c.QBPIterations == 0 {
		c.QBPIterations = qbp.DefaultIterations
	}
	if c.KLMaxPasses == 0 {
		c.KLMaxPasses = kl.DefaultMaxPasses
	}
	if len(c.Circuits) == 0 {
		for _, s := range gen.Paper {
			c.Circuits = append(c.Circuits, s.Name)
		}
	}
}

// Run executes the experiment and returns one row per circuit.
func Run(cfg Config) ([]Row, error) {
	cfg.defaults()
	rows := make([]Row, 0, len(cfg.Circuits))
	for _, name := range cfg.Circuits {
		row, err := runCircuit(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunCircuit executes the three methods on one named circuit.
func runCircuit(name string, cfg Config) (Row, error) {
	in, err := gen.Named(name)
	if err != nil {
		return Row{}, err
	}
	p := in.Problem

	// The shared initial feasible solution (paper protocol: QBP with B=0).
	// It satisfies the timing constraints, so the same start serves both
	// the relaxed and the constrained tables — as in the paper, whose
	// start column is identical across Tables II and III.
	initial, err := qbp.FeasibleStart(context.Background(), p, cfg.Seed, 40)
	if err != nil {
		return Row{}, fmt.Errorf("initial solution: %w", err)
	}
	row := Row{Circuit: name, Start: p.WireLength(initial)}

	relax := !cfg.Timing

	t0 := time.Now()
	qres, err := qbp.Solve(context.Background(), p, qbp.Options{
		Iterations:  cfg.QBPIterations,
		Initial:     initial,
		RelaxTiming: relax,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return Row{}, fmt.Errorf("qbp: %w", err)
	}
	if row.QBP, err = result(p, qres.Assignment, row.Start, time.Since(t0), cfg.Timing); err != nil {
		return Row{}, fmt.Errorf("qbp: %w", err)
	}

	t0 = time.Now()
	fres, err := fm.Solve(context.Background(), p, initial, fm.Options{RelaxTiming: relax})
	if err != nil {
		return Row{}, fmt.Errorf("gfm: %w", err)
	}
	if row.GFM, err = result(p, fres.Assignment, row.Start, time.Since(t0), cfg.Timing); err != nil {
		return Row{}, fmt.Errorf("gfm: %w", err)
	}

	t0 = time.Now()
	kres, err := kl.Solve(context.Background(), p, initial, kl.Options{RelaxTiming: relax, MaxPasses: cfg.KLMaxPasses})
	if err != nil {
		return Row{}, fmt.Errorf("gkl: %w", err)
	}
	if row.GKL, err = result(p, kres.Assignment, row.Start, time.Since(t0), cfg.Timing); err != nil {
		return Row{}, fmt.Errorf("gkl: %w", err)
	}

	return row, nil
}

// result independently validates an assignment and fills a MethodResult. A
// structurally unusable assignment is a solver bug, reported as an error so
// one bad method run fails the experiment instead of crashing the process.
func result(p *model.Problem, a model.Assignment, start int64, cpu time.Duration, timing bool) (MethodResult, error) {
	rep, err := validate.Check(p, a)
	if err != nil {
		return MethodResult{}, fmt.Errorf("solver produced unusable assignment: %w", err)
	}
	feasible := rep.OverloadedCount == 0 && (!timing || len(rep.TimingViolations) == 0)
	return MethodResult{
		WireLength: rep.WireLength,
		Improve:    100 * (1 - float64(rep.WireLength)/float64(start)),
		CPU:        cpu,
		Feasible:   feasible,
	}, nil
}

// WriteTableI writes the circuit-description table.
func WriteTableI(w io.Writer) error {
	fmt.Fprintln(w, "I. circuit descriptions:")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6s %15s %12s %25s\n", "ckt", "# of components", "# of wires", "# of Timing Constraints")
	for _, s := range gen.Paper {
		in, err := gen.Named(s.Name)
		if err != nil {
			return err
		}
		c := in.Problem.Circuit
		fmt.Fprintf(w, "%-6s %15d %12d %25d\n", s.Name, c.N(), c.TotalWireWeight(), len(c.Timing))
	}
	return nil
}

// WriteTable runs the experiment and writes it in the paper's layout.
func WriteTable(w io.Writer, cfg Config) error {
	rows, err := Run(cfg)
	if err != nil {
		return err
	}
	FormatRows(w, rows, cfg.Timing)
	return nil
}

// FormatRows renders rows in the paper's Table II/III layout.
func FormatRows(w io.Writer, rows []Row, timing bool) {
	if timing {
		fmt.Fprintln(w, "III. With Timing Constraints:")
	} else {
		fmt.Fprintln(w, "II. Without Timing Constraints:")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-9s %7s | %7s %6s %8s | %7s %6s %8s | %7s %6s %8s\n",
		"circuits", "start",
		"QBP", "(-%)", "cpu",
		"GFM", "(-%)", "cpu",
		"GKL", "(-%)", "cpu")
	fmt.Fprintln(w, strings.Repeat("-", 96))
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %7d | %7d %6.1f %8.1f | %7d %6.1f %8.1f | %7d %6.1f %8.1f\n",
			r.Circuit, r.Start,
			r.QBP.WireLength, r.QBP.Improve, r.QBP.CPU.Seconds(),
			r.GFM.WireLength, r.GFM.Improve, r.GFM.CPU.Seconds(),
			r.GKL.WireLength, r.GKL.Improve, r.GKL.CPU.Seconds())
	}
}
