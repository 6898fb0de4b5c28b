// Command perfbench is the repository's benchmark. One run drives one
// workload through the partitioner's public entry points, checks every
// output, and prints its metrics; the last line of standard output is one
// JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a run that records a
// span around every call the benchmark makes into a layer and writes the
// spans out at the end. run.sh builds this program and the qbpartd daemon
// and runs it; README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/model"
	"repro/internal/validate"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec declares a metric's name and unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"baseline_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"max_rate", "1/s"},
	{"wirelength", "count"},
	{"success_share", "share"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints, on every workload. A
// layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"textio.decode_ms", "ms"},
	{"textio.encode_ms", "ms"},
	{"qbp.start_ms", "ms"},
	{"qbp.solve_ms", "ms"},
	{"qbp.setup_ms", "ms"},
	{"qbp.iter_ms", "ms"},
	{"qbp.polish_ms", "ms"},
	{"qbp.iter_us", "us"},
	{"qbp.iterations", "count"},
	{"qbp.restarts", "count"},
	{"qbp.eta_incremental_share", "share"},
	{"qbp.allocs", "count"},
	{"qbp.eta_full_us", "us"},
	{"gap.step4_us", "us"},
	{"gap.step4_allocs", "count"},
	{"fm.solve_ms", "ms"},
	{"fm.allocs", "count"},
	{"kl.solve_ms", "ms"},
	{"kl.allocs", "count"},
	{"multilevel.coarsen_ms", "ms"},
	{"multilevel.coarse_solve_ms", "ms"},
	{"multilevel.refine_ms", "ms"},
	{"multilevel.refine_max_level_ms", "ms"},
	{"multilevel.refine_moves", "count"},
	{"multilevel.levels", "count"},
	{"multilevel.coarse_n", "count"},
	{"validate.check_ms", "ms"},
	{"jobqueue.wait_p50_ms", "ms"},
	{"jobqueue.wait_p95_ms", "ms"},
	{"jobqueue.solve_p50_ms", "ms"},
	{"jobqueue.solve_p95_ms", "ms"},
	{"jobqueue.rejected", "count"},
	{"jobqueue.failed", "count"},
	{"qbpartd.submit_p50_ms", "ms"},
	{"qbpartd.fetch_ms", "ms"},
	{"bench.generator_lag_ms", "ms"},
	{"bench.trace_overhead_share", "share"},
	{"bench.uncovered_share", "share"},
	{"bench.fail.gap_step4", "count"},
	{"bench.fail.error", "count"},
	{"bench.fail.infeasible", "count"},
	{"bench.fail.check", "count"},
	{"bench.fail.refused", "count"},
	{"bench.fail.job", "count"},
	{"bench.fail.timeout", "count"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	daemon   string // qbpartd binary (service-mix)
	outDir   string // span files of traced runs
}

// report is what a workload hands back: the metrics of its mode, the
// operation tally, and lines for the human-readable preamble.
type report struct {
	metrics map[string]metric
	tally   *tally
	notes   []string
}

var workloads = map[string]func(context.Context, config) (*report, error){
	"paper-t3":    runPaper,
	"vcycle-10k":  runVCycle,
	"service-mix": runService,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "paper-t3, vcycle-10k or service-mix")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "measuring time per run; a run completes at least one unit of work")
		traced   = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		daemon   = fs.String("daemon", "", "qbpartd binary (service-mix)")
		outDir   = fs.String("out", ".bench_build", "directory for traced runs' span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need -workload paper-t3|vcycle-10k|service-mix, -trace 0|1 and -seconds > 0")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traced == 1, daemon: *daemon, outDir: *outDir,
	}
	rep, err := fn(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	line, err := resultLine(rep, specs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", s.name, rep.metrics[s.name].Value, s.unit)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// resultLine renders the final JSON line after checking that the metrics
// are exactly the declared ones, with valid names, units and values.
func resultLine(rep *report, specs []metricSpec) (string, error) {
	if len(rep.metrics) != len(specs) {
		return "", fmt.Errorf("workload produced %d metrics, want %d", len(rep.metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := rep.metrics[s.name]
		if !ok {
			return "", fmt.Errorf("metric %s missing", s.name)
		}
		if m.Unit != s.unit {
			return "", fmt.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
		}
		if err := checkMetric(s.name, m); err != nil {
			return "", err
		}
	}
	t := rep.tally
	if t.attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(t.incorrect) == 0, t.attempted, t.failed(), rep.metrics})
	return string(b), err
}

// failKind classifies a failed operation.
type failKind int

const (
	failGAP        failKind = iota // a QBP GAP subproblem had no capacity-feasible solution
	failError                      // any other error returned by a call
	failInfeasible                 // a result validate.Check finds infeasible
	failCheck                      // reported numbers disagree with validate.Check, or results differ where they must match
	failRefused                    // HTTP 429, 413 or 503 at submission
	failJob                        // the daemon reports the job failed or canceled
	failTimeout                    // no answer within the benchmark's wait limit
	numFailKinds
)

var failNames = [numFailKinds]string{"gap_step4", "error", "infeasible", "check", "refused", "job", "timeout"}

// tally counts attempted operations and failures by kind. A failCheck
// failure also makes the run incorrect.
type tally struct {
	attempted int
	fails     [numFailKinds]int
	incorrect []string
}

func (t *tally) fail(k failKind, detail string) {
	t.fails[k]++
	if k == failCheck {
		t.incorrect = append(t.incorrect, detail)
	}
}

func (t *tally) failed() int {
	n := 0
	for _, f := range t.fails {
		n += f
	}
	return n
}

func (t *tally) successShare() float64 {
	return 1 - float64(t.failed())/float64(max(t.attempted, 1))
}

// notes lists the failure counts by kind and every incorrect output.
func (t *tally) notes() []string {
	out := []string{fmt.Sprintf("attempted %d", t.attempted)}
	for k, n := range t.fails {
		out = append(out, fmt.Sprintf("fail.%s %d", failNames[k], n))
	}
	for _, d := range t.incorrect {
		out = append(out, "INCORRECT: "+d)
	}
	return out
}

// gapFailure is the text of qbp's error for a STEP 4 or STEP 6 GAP
// subproblem without a capacity-feasible solution.
const gapFailure = "subproblem has no capacity-feasible solution"

// classifyError maps a solver error message to its failure kind.
func classifyError(msg string) failKind {
	if strings.Contains(msg, gapFailure) {
		return failGAP
	}
	return failError
}

// classifyJob maps a terminal daemon job state and its error message to a
// failure kind; failed is false for a job that finished with a result.
func classifyJob(state, errMsg string) (k failKind, failed bool) {
	switch {
	case state == "done":
		return 0, false
	case state == "failed" && strings.Contains(errMsg, gapFailure):
		return failGAP, true
	default:
		return failJob, true
	}
}

// classifySubmit maps a submission's non-202 HTTP status to a failure kind.
func classifySubmit(status int) failKind {
	switch status {
	case 429, 413, 503:
		return failRefused
	}
	return failError
}

// checkResult re-validates an assignment with validate.Check and compares
// the numbers the program reported for it. A disagreement is a failCheck,
// an infeasible result a failInfeasible; ok means neither happened.
func checkResult(t *tally, what string, p *model.Problem, a model.Assignment, objective, wireLength int64, feasible bool) (ok bool) {
	rep, err := validate.Check(p, a)
	switch {
	case err != nil:
		t.fail(failCheck, fmt.Sprintf("%s: %v", what, err))
		return false
	case rep.Objective != objective || rep.WireLength != wireLength || rep.Feasible != feasible:
		t.fail(failCheck, fmt.Sprintf("%s: reported objective %d, wire length %d, feasible %v; validate says %d, %d, %v",
			what, objective, wireLength, feasible, rep.Objective, rep.WireLength, rep.Feasible))
		return false
	case !rep.Feasible:
		t.fail(failInfeasible, what)
		return false
	}
	return true
}

// setupReps is how many times each workload repeats its set-up; setup_s is
// the median.
const setupReps = 9

// timeReps runs fn reps times and returns the median wall seconds.
func timeReps(reps int, fn func() error) (float64, error) {
	var xs []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// layerMetrics fills every per-layer metric. A value in derived wins;
// otherwise a tracer counter of the same name, divided by passes; otherwise,
// for a name ending in _ms, the summed duration of the spans named without
// the suffix, divided by passes; otherwise 0 (layer not exercised).
func layerMetrics(tr *tracer, passes int, derived map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, s := range perLayer {
		v, ok := derived[s.name]
		if !ok {
			if c, ok := tr.counter(s.name); ok {
				v = c / float64(passes)
			} else if base, isMS := strings.CutSuffix(s.name, "_ms"); isMS {
				var d time.Duration
				for _, x := range tr.durations(base) {
					d += x
				}
				v = ms(d) / float64(passes)
			}
		}
		out[s.name] = metric{v, s.unit}
	}
	return out
}

// finishTrace completes a traced run: it adds the failure counts, the
// tracing overhead and the blocking-path coverage to derived, writes the
// span file and self-time summary, and returns the summary lines.
// parents names the spans whose children must account for their wall
// time.
func finishTrace(cfg config, tr *tracer, t *tally, parents []string, overhead float64, derived map[string]float64) ([]string, error) {
	for k, n := range t.fails {
		derived["bench.fail."+failNames[k]] = float64(n)
	}
	derived["bench.trace_overhead_share"] = overhead
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	var sb strings.Builder
	writeSummary(&sb, selfTimes(spans))
	unc := uncoveredShare(spans, parents)
	derived["bench.uncovered_share"] = unc
	limit := max(0.02, overhead)
	verdict := "ok"
	if unc > limit {
		verdict = "NOT covered"
	}
	fmt.Fprintf(&sb, "blocking-path check over %s: children leave %.2f%% uncovered (limit %.2f%%): %s\n",
		strings.Join(parents, ", "), 100*unc, 100*limit, verdict)
	base := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if err := saveTrace(cfg.outDir, base, spans, sb.String()); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	return append(lines, "spans: "+filepath.Join(cfg.outDir, base+".spans.jsonl")), nil
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from /proc;
// pid is a process id or "self".
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// mallocs returns the process's cumulative heap allocation count; traced
// runs difference it around a call.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
