package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/kl"
	"repro/internal/model"
	"repro/internal/qbp"
	"repro/internal/textio"
)

// paper-t3 is the paper's own experiment: the seven Table I circuits in
// the Table III configuration (timing constraints on), each solved by QBP
// and GFM from one shared feasible start; the traced run adds GKL. The flat
// QBP iteration loop and full (non-boundary) GFM/GKL passes do the work;
// nothing is coarsened or queued. The circuits are fixed by the paper, so
// -seed does not change the inputs.

// paperStartIterations is the iteration budget of the shared feasible
// start (the paper's QBP-with-B=0 protocol), seeded with 0.
const paperStartIterations = 40

// paperCircuit is one circuit's problem in the text format.
type paperCircuit struct {
	name string
	body []byte
}

// paperPass is one pass over the seven circuits (traced runs).
type paperPass struct {
	solve  time.Duration // QBP path: decode, start, QBP, validate, encode
	probes []probe       // each circuit at its shared start
}

func paperSetup() ([]paperCircuit, error) {
	var out []paperCircuit
	for _, s := range gen.Paper {
		in, err := gen.Named(s.Name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := textio.WriteProblem(&buf, in.Problem); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", s.Name, err)
		}
		out = append(out, paperCircuit{s.Name, buf.Bytes()})
	}
	return out, nil
}

func runPaper(ctx context.Context, cfg config) (*report, error) {
	var circuits []paperCircuit
	setup, err := timeReps(setupReps, func() (err error) {
		circuits, err = paperSetup()
		return err
	})
	if err != nil {
		return nil, err
	}
	t := &tally{}
	if cfg.trace {
		return paperTraced(ctx, cfg, circuits, t)
	}
	// The run cycles through the circuits until --seconds have passed and
	// every circuit has run once: each visit runs the circuit's QBP path,
	// then GFM from that path's start. Interleaving spreads every metric's
	// samples over the whole run, so a slow spell of the machine touches a
	// few samples of each instead of all of one. A circuit's time is its
	// median over its visits. GKL, which takes 2.5 times as long as the QBP
	// path, runs in the traced run only: here it would leave one or two
	// visits per circuit.
	n := len(circuits)
	qbpTimes := make([][]float64, n)  // QBP path, s
	baseTimes := make([][]float64, n) // GFM, s
	wireLengths := make([]int64, n)
	visits := 0
	for t0 := time.Now(); visits < n || time.Since(t0) < cfg.seconds; visits++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := visits % n
		t.attempted++
		s0 := time.Now()
		p, start, wl, ok := paperQBPPath(ctx, circuits[c], t, nil, 0)
		qbpTimes[c] = append(qbpTimes[c], time.Since(s0).Seconds())
		if !ok {
			continue
		}
		if visits < n {
			wireLengths[c] = wl
		} else if wl != wireLengths[c] {
			t.fail(failCheck, fmt.Sprintf("%s: wire length %d differs from the first visit's %d", circuits[c].name, wl, wireLengths[c]))
		}
		d, err := paperBaselines(ctx, []probe{{p, start}}, false, t, nil)
		if err != nil {
			return nil, err
		}
		baseTimes[c] = append(baseTimes[c], d.Seconds())
	}
	// A request's latency is its circuit's median QBP-path time, so the
	// sample count (and with it the tail percentile) does not depend on how
	// many visits fit in the measuring time.
	var solve, baseline float64
	var lat []float64
	var wireLength int64
	for c := range circuits {
		solve += median(qbpTimes[c])
		baseline += median(baseTimes[c])
		lat = append(lat, 1000*median(qbpTimes[c]))
		wireLength += wireLengths[c]
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	pct, tl := tail(lat)
	return &report{
		metrics: map[string]metric{
			"setup_s":       {setup, "s"},
			"solve_s":       {solve, "s"},
			"baseline_s":    {baseline, "s"},
			"p50_ms":        {median(lat), "ms"},
			"tail_ms":       {tl, "ms"},
			"max_rate":      {float64(n) / solve, "1/s"},
			"wirelength":    {float64(wireLength), "count"},
			"success_share": {t.successShare(), "share"},
			"peak_rss_mb":   {rss, "MB"},
		},
		tally: t,
		notes: append([]string{fmt.Sprintf("%d circuit visits (%.1f per circuit); per-circuit median latencies: tail is %s of %d samples",
			visits, float64(visits)/float64(n), tailLabel(pct), len(lat))}, t.notes()...),
	}, nil
}

// paperTraced runs one untraced pass, then one traced pass, and reports
// the per-layer metrics of the traced one; the ratio of their QBP-path
// times is the tracing overhead.
func paperTraced(ctx context.Context, cfg config, circuits []paperCircuit, t *tally) (*report, error) {
	plain, err := runPaperPass(ctx, circuits, t, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(fmt.Sprintf("paper-t3/seed%d", cfg.seed))
	traced, err := runPaperPass(ctx, circuits, t, tr)
	if err != nil {
		return nil, err
	}
	if _, err := paperBaselines(ctx, traced.probes, true, t, tr); err != nil {
		return nil, err
	}
	derived := map[string]float64{}
	solverDerived(tr, derived)
	replaySTEP4(ctx, tr, traced.probes, derived)
	overhead := traced.solve.Seconds()/plain.solve.Seconds() - 1
	lines, err := finishTrace(cfg, tr, t, []string{"paper.qbp_path", "paper.baseline", "qbp.solve"}, overhead, derived)
	if err != nil {
		return nil, err
	}
	return &report{metrics: layerMetrics(tr, 1, derived), tally: t, notes: append(lines, t.notes()...)}, nil
}

// runPaperPass runs every circuit's QBP path once. Failures are tallied,
// not returned; the error is for a cancelled context only.
func runPaperPass(ctx context.Context, circuits []paperCircuit, t *tally, tr *tracer) (paperPass, error) {
	var ps paperPass
	for _, c := range circuits {
		if err := ctx.Err(); err != nil {
			return ps, err
		}
		t.attempted++
		id := tr.open("paper.qbp_path", 0)
		t0 := time.Now()
		p, start, _, ok := paperQBPPath(ctx, c, t, tr, id)
		ps.solve += time.Since(t0)
		tr.close(id)
		if ok {
			ps.probes = append(ps.probes, probe{p, start})
		}
	}
	return ps, nil
}

// paperBaselines runs GFM, and GKL if gkl is set, from each circuit's
// shared start, validates the results, and returns the total wall time.
func paperBaselines(ctx context.Context, probes []probe, gkl bool, t *tally, tr *tracer) (time.Duration, error) {
	var total time.Duration
	for _, pr := range probes {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		id := tr.open("paper.baseline", 0)
		t0 := time.Now()
		paperBaseline(ctx, pr.p.Circuit.Name, pr.p, pr.u, gkl, t, tr, id)
		total += time.Since(t0)
		tr.close(id)
	}
	return total, nil
}

// paperQBPPath is one circuit from input bytes to a validated, encoded QBP
// assignment: decode, feasible start, QBP, validate, encode.
func paperQBPPath(ctx context.Context, c paperCircuit, t *tally, tr *tracer, parent int) (p *model.Problem, start model.Assignment, wireLength int64, ok bool) {
	id := tr.open("textio.decode", parent)
	p, err := textio.ReadProblem(bytes.NewReader(c.body))
	tr.close(id)
	if err != nil {
		t.fail(failError, fmt.Sprintf("%s: decode: %v", c.name, err))
		return nil, nil, 0, false
	}
	id = tr.open("qbp.start", parent)
	start, err = qbp.FeasibleStart(ctx, p, 0, paperStartIterations)
	tr.close(id)
	if err != nil {
		t.fail(classifyError(err.Error()), fmt.Sprintf("%s: start: %v", c.name, err))
		return nil, nil, 0, false
	}
	var res *qbp.Result
	allocated(tr, "qbp", func() {
		id = tr.open("qbp.solve", parent)
		res, err = qbp.Solve(ctx, p, qbp.Options{Initial: start})
		tr.close(id)
	})
	if err != nil {
		t.fail(classifyError(err.Error()), fmt.Sprintf("%s: qbp: %v", c.name, err))
		return nil, nil, 0, false
	}
	recordQBP(tr, id, res.Stats)
	id = tr.open("validate.check", parent)
	ok = checkResult(t, c.name+"/qbp", p, res.Assignment, res.Objective, res.WireLength, res.Feasible)
	tr.close(id)
	id = tr.open("textio.encode", parent)
	var out bytes.Buffer
	err = textio.WriteAssignment(&out, res.Assignment)
	tr.close(id)
	if err != nil {
		t.fail(failError, fmt.Sprintf("%s: encode: %v", c.name, err))
		return nil, nil, 0, false
	}
	return p, start, res.WireLength, ok
}

// paperBaseline runs GFM, and GKL if gkl is set, from the shared start and
// validates each result.
func paperBaseline(ctx context.Context, name string, p *model.Problem, start model.Assignment, gkl bool, t *tally, tr *tracer, parent int) {
	t.attempted++
	var fr *fm.Result
	var err error
	allocated(tr, "fm", func() {
		id := tr.open("fm.solve", parent)
		fr, err = fm.Solve(ctx, p, start, fm.Options{})
		tr.close(id)
	})
	if err != nil {
		t.fail(classifyError(err.Error()), fmt.Sprintf("%s: gfm: %v", name, err))
	} else {
		id := tr.open("validate.check", parent)
		checkResult(t, name+"/gfm", p, fr.Assignment, fr.Objective, fr.WireLength, true)
		tr.close(id)
	}
	if !gkl {
		return
	}
	t.attempted++
	var kr *kl.Result
	allocated(tr, "kl", func() {
		id := tr.open("kl.solve", parent)
		kr, err = kl.Solve(ctx, p, start, kl.Options{})
		tr.close(id)
	})
	if err != nil {
		t.fail(classifyError(err.Error()), fmt.Sprintf("%s: gkl: %v", name, err))
		return
	}
	id := tr.open("validate.check", parent)
	checkResult(t, name+"/gkl", p, kr.Assignment, kr.Objective, kr.WireLength, true)
	tr.close(id)
}
