// Command qbpart partitions a circuit under timing and capacity
// constraints. It reads a problem in the plain-text or binary format
// (auto-detected; see cmd/gencircuit), solves it with the chosen method,
// validates the solution independently and prints a report.
//
// Usage:
//
//	qbpart -in ckta.prob -method qbp -iterations 100 -o ckta.assign
//	qbpart -in ckta.prob -method qbp -multistart 4
//	qbpart -in ckta.prob -method qbp -timeout 2s      # best-so-far at deadline
//	qbpart -in ckta.prob -method qbp -progress 500ms  # periodic progress line
//	qbpart -in big.prob -multilevel -coarsen-target 2048  # V-cycle for huge instances
//	qbpart -in ckta.prob -method gkl -relax-timing
//	qbpart -in ckta.prob -initial ckta.assign -method gfm
//	qbpart -in ckta.prob -check ckta.assign            # validate only
//	qbpart -in ckta.prob -convert ckta.bin             # text ⇄ binary
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	partition "repro"
	"repro/internal/atomicio"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags parse from args,
// reports go to stdout, errors and progress to stderr, and the process exit
// code is the return value (0 ok, 1 failure, 2 usage error / infeasible
// check, 3 interrupted by a signal — the best-so-far result, when one
// exists, is still reported and written). ctx carries the interrupt: main
// wires it to SIGINT/SIGTERM so ^C lands on the solvers' cancellation
// contract instead of killing the process mid-write.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qbpart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "", "problem file (required)")
		method     = fs.String("method", "qbp", "solver: qbp, gfm, gkl or sa")
		iterations = fs.Int("iterations", 100, "QBP iterations (must be >= 1)")
		relax      = fs.Bool("relax-timing", false, "ignore timing constraints (Table II mode)")
		seed       = fs.Int64("seed", 0, "random seed")
		initial    = fs.String("initial", "", "initial assignment file (default: generated feasible start)")
		out        = fs.String("o", "", "write the final assignment to this file")
		multistart = fs.Int("multistart", 1, "independent QBP starts run concurrently (qbp only, must be >= 1)")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget for the solve; at expiry the best solution found so far is reported (0 = none)")
		progress   = fs.Duration("progress", 0, "print a progress line to stderr at most this often (qbp only, 0 = off)")
		mlevel     = fs.Bool("multilevel", false, "solve with the multi-level V-cycle: coarsen, solve the coarsest level with qbp, refine per level (qbp only)")
		coarsenTgt = fs.Int("coarsen-target", 0, "coarsest-level size handed to the flat solver (multilevel only, 0 = default)")
		check      = fs.String("check", "", "validate this assignment file against the problem and exit")
		convert    = fs.String("convert", "", "rewrite the problem to this file in the other format (text ⇄ binary) and exit")
		show       = fs.Bool("show", false, "render the placement grid and wire-length histogram (square grids)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usageError := func(msg string) int {
		fmt.Fprintln(stderr, "qbpart:", msg)
		fs.Usage()
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "qbpart:", err)
		return 1
	}
	if *in == "" {
		return usageError("-in is required")
	}
	// Validate numeric knobs up front: the packages behind the facade each
	// apply their own defaulting to out-of-range values (and qbp and sa
	// disagree on what a non-positive count means), so a typo like
	// -multistart 0 must be a usage error here, not a silent reinterpretation.
	if *iterations < 1 {
		return usageError(fmt.Sprintf("-iterations must be >= 1 (got %d)", *iterations))
	}
	if *multistart < 1 {
		return usageError(fmt.Sprintf("-multistart must be >= 1 (got %d)", *multistart))
	}
	if *timeout < 0 {
		return usageError(fmt.Sprintf("-timeout must be >= 0 (got %v)", *timeout))
	}
	if *progress < 0 {
		return usageError(fmt.Sprintf("-progress must be >= 0 (got %v)", *progress))
	}
	if *mlevel && *method != "qbp" {
		return usageError(fmt.Sprintf("-multilevel requires -method qbp (got %q)", *method))
	}
	if *mlevel && *initial != "" {
		return usageError("-multilevel derives its own per-level starts; -initial is not supported")
	}
	if *coarsenTgt < 0 {
		return usageError(fmt.Sprintf("-coarsen-target must be >= 0 (got %d)", *coarsenTgt))
	}
	if *coarsenTgt > 0 && !*mlevel {
		return usageError("-coarsen-target only applies with -multilevel")
	}

	f, err := os.Open(*in)
	if err != nil {
		return fatal(err)
	}
	p, format, err := partition.ReadProblemDetect(f)
	f.Close()
	if err != nil {
		return fatal(err)
	}

	if *convert != "" {
		// Convert to whichever format the input was not in. The write is
		// atomic (temp file + rename): a failure mid-write can never leave a
		// truncated problem file at the destination.
		target := partition.FormatBinary
		write := partition.WriteProblemBinary
		if format == partition.FormatBinary {
			target = partition.FormatText
			write = partition.WriteProblem
		}
		if cerr := atomicio.WriteFile(*convert, func(w io.Writer) error {
			return write(w, p)
		}); cerr != nil {
			return fatal(cerr)
		}
		fmt.Fprintf(stderr, "converted %s (%v) -> %s (%v)\n", *in, format, *convert, target)
		return 0
	}

	if *check != "" {
		cf, cerr := os.Open(*check)
		if cerr != nil {
			return fatal(cerr)
		}
		a, cerr := partition.ReadAssignmentAuto(cf)
		cf.Close()
		if cerr != nil {
			return fatal(cerr)
		}
		report, cerr := partition.Validate(p, a)
		if cerr != nil {
			return fatal(cerr)
		}
		fmt.Fprint(stdout, report)
		if !report.Feasible {
			return 2
		}
		return 0
	}

	// One deadline bounds the whole run (feasible-start generation plus the
	// solve): at expiry the solver returns its best incumbent with Stopped
	// set and the report below is produced from it as usual. The signal
	// context stays visible separately so an interrupt (exit 3) is
	// distinguishable from an expired -timeout (exit 0, still a success).
	sigCtx := ctx
	interrupted := func() bool { return sigCtx.Err() != nil }
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var start partition.Assignment
	if *mlevel {
		// The V-cycle derives its own per-level starts (cluster seed at the
		// coarsest level, projection below); a flat feasible-start pass over
		// a million-component instance would dominate the runtime.
	} else if *initial != "" {
		af, aerr := os.Open(*initial)
		if aerr != nil {
			return fatal(aerr)
		}
		start, aerr = partition.ReadAssignmentAuto(af)
		af.Close()
		if aerr != nil {
			return fatal(aerr)
		}
	} else {
		t0 := time.Now()
		start, err = partition.FeasibleStart(ctx, p, *seed, 40)
		if err != nil {
			if interrupted() {
				fmt.Fprintln(stderr, "qbpart: interrupted before a solution existed")
				return 3
			}
			return fatal(fmt.Errorf("generating feasible start: %w", err))
		}
		fmt.Fprintf(stderr, "feasible start: wire length %d (%.2fs)\n",
			p.WireLength(start), time.Since(t0).Seconds())
	}

	// A solver only errors out under cancellation when it was cancelled
	// before producing any incumbent; when that cancellation came from a
	// signal the run is "interrupted", not "failed".
	solveFatal := func(err error) int {
		if interrupted() {
			fmt.Fprintln(stderr, "qbpart: interrupted before a solution existed")
			return 3
		}
		return fatal(err)
	}

	t0 := time.Now()
	var final partition.Assignment
	var stopped bool
	var stats *partition.QBPSolveStats
	var levels []partition.MultilevelLevelStat
	switch *method {
	case "qbp":
		o := partition.QBPOptions{
			Iterations:  *iterations,
			Initial:     start,
			RelaxTiming: *relax,
			Seed:        *seed,
			OnProgress:  progressPrinter(stderr, *progress),
		}
		if *mlevel {
			mres, merr := partition.SolveMultilevel(ctx, p, partition.MultilevelOptions{
				Coarse:        partition.MultiStartOptions{Base: o, Starts: *multistart},
				CoarsenTarget: *coarsenTgt,
			})
			if merr != nil {
				return solveFatal(merr)
			}
			final, stopped, stats, levels = mres.Assignment, mres.Stopped, &mres.Coarse.Stats, mres.Levels
			break
		}
		var res *partition.QBPResult
		var err error
		if *multistart > 1 {
			res, err = partition.SolveQBPMultiStart(ctx, p, partition.MultiStartOptions{
				Base: o, Starts: *multistart,
			})
		} else {
			res, err = partition.SolveQBP(ctx, p, o)
		}
		if err != nil {
			return solveFatal(err)
		}
		final, stopped, stats = res.Assignment, res.Stopped, &res.Stats
	case "gfm":
		res, serr := partition.SolveGFM(ctx, p, start, partition.GFMOptions{RelaxTiming: *relax})
		if serr != nil {
			return solveFatal(serr)
		}
		final, stopped = res.Assignment, res.Stopped
	case "gkl":
		res, serr := partition.SolveGKL(ctx, p, start, partition.GKLOptions{RelaxTiming: *relax})
		if serr != nil {
			return solveFatal(serr)
		}
		final, stopped = res.Assignment, res.Stopped
	case "sa":
		res, serr := partition.SolveSA(ctx, p, partition.SAOptions{
			Initial: start, RelaxTiming: *relax, Seed: *seed,
		})
		if serr != nil {
			return solveFatal(serr)
		}
		final, stopped = res.Assignment, res.Stopped
	default:
		return usageError(fmt.Sprintf("unknown method %q (want qbp, gfm, gkl or sa)", *method))
	}
	elapsed := time.Since(t0)

	report, err := partition.Validate(p, final)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "method           %s\n", *method)
	fmt.Fprintf(stdout, "cpu              %.2fs\n", elapsed.Seconds())
	if stopped {
		fmt.Fprintf(stdout, "stopped          true (deadline/cancellation: best-so-far result)\n")
	}
	if stats != nil {
		fmt.Fprintf(stdout, "iterations       %d (%d starts, %d restarts)\n",
			stats.Iterations, stats.Starts, stats.Restarts)
		fmt.Fprintf(stdout, "arcs             %d (density %.4f)\n",
			stats.NNZ, stats.Density)
	}
	if levels != nil {
		sizes := make([]string, len(levels))
		moves := 0
		for k, l := range levels {
			sizes[k] = fmt.Sprintf("%d", l.N)
			moves += l.Moves
		}
		fmt.Fprintf(stdout, "levels           %d (%s components; %d refinement moves)\n",
			len(levels), strings.Join(sizes, " -> "), moves)
	}
	if start != nil {
		fmt.Fprintf(stdout, "start WL         %d\n", p.WireLength(start))
	}
	fmt.Fprint(stdout, report)
	if !report.Feasible && !*relax {
		fmt.Fprintln(stderr, "warning: solution violates constraints")
	}

	if *show {
		if err := renderPlacement(stdout, p, final); err != nil {
			fmt.Fprintln(stderr, "qbpart: cannot render:", err)
		}
	}

	if *out != "" {
		// Atomic for the same reason as -convert: an interrupt or disk error
		// mid-write must not replace a previous assignment with a truncated
		// one.
		if err := atomicio.WriteFile(*out, func(w io.Writer) error {
			return partition.WriteAssignment(w, final)
		}); err != nil {
			return fatal(err)
		}
	}
	if stopped && interrupted() {
		fmt.Fprintln(stderr, "qbpart: interrupted; best-so-far result reported")
		return 3
	}
	return 0
}

// progressPrinter returns an OnProgress callback that writes one status
// line to stderr at most once per interval (0 disables it). The callback
// runs concurrently from every multistart worker, so the rate limiter is
// locked.
func progressPrinter(stderr io.Writer, interval time.Duration) func(partition.QBPProgress) {
	if interval <= 0 {
		return nil
	}
	var mu sync.Mutex
	var last time.Time
	return func(pr partition.QBPProgress) {
		mu.Lock()
		defer mu.Unlock()
		if now := time.Now(); now.Sub(last) >= interval {
			last = now
			fmt.Fprintf(stderr,
				"progress: start %d iter %d/%d best penalized %d restarts %d elapsed %.1fs\n",
				pr.Start, pr.Iteration, pr.Iterations, pr.BestPenalized, pr.Restarts, pr.Elapsed.Seconds())
		}
	}
}

// renderPlacement draws the placement assuming the partitions form the
// most-square grid with M slots (exact for the built-in generators).
func renderPlacement(stdout io.Writer, p *partition.Problem, a partition.Assignment) error {
	m := p.M()
	rows := 1
	for r := 2; r*r <= m; r++ {
		if m%r == 0 {
			rows = r
		}
	}
	grid := partition.Grid{Rows: rows, Cols: m / rows}
	fmt.Fprintln(stdout)
	if err := partition.RenderGrid(stdout, p, grid, a); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return partition.RenderWireHistogram(stdout, p, a)
}
