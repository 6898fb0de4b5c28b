package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/qbp"
	"repro/internal/textio"
)

// vcycle-10k is one N=10⁴ instance (4·10⁴ wires, 10³ timing constraints)
// in the binary format through the multi-level V-cycle. The coarse
// multistart and boundary-restricted refinement of the N≈2500 level
// dominate, and it uses fm and the gain tables in boundary mode where
// paper-t3 uses them in full mode. A V-cycle takes a few seconds, so a run
// measures several and reports their median. The instance is fixed, so
// -seed does not change the input.
var vcycleSpec = gen.Spec{Name: "vcycle-10k", Components: 10_000, Wires: 40_000, TimingConstraints: 1_000, Seed: 31}

// vcycleOptions is the V-cycle configuration: two seeded coarse starts of
// 10 iterations each (each coarse iteration costs about 0.1 s, mostly its
// two GAP subproblems), run one after the other, since two solver threads
// on a two-core machine shared with other tenants time the scheduler as
// much as the solver.
func vcycleOptions() multilevel.Options {
	return multilevel.Options{Coarse: qbp.MultiStartOptions{Base: qbp.Options{Iterations: 10, Seed: 7}, Starts: 2, Workers: 1}}
}

// vcycleSample is one V-cycle from input bytes to encoded assignment.
type vcycleSample struct {
	solve      time.Duration
	refine     time.Duration // uncoarsening: coarsest level's result to the finest level refined
	wireLength int64
	coarse     probe // the coarsest level at its solution, for the replay probes
}

func runVCycle(ctx context.Context, cfg config) (*report, error) {
	var body []byte
	setup, err := timeReps(setupReps, func() error {
		in, err := gen.Generate(gen.Params{Spec: vcycleSpec})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := textio.WriteProblemBinary(&buf, in.Problem); err != nil {
			return fmt.Errorf("encoding: %w", err)
		}
		body = buf.Bytes()
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &tally{}
	if cfg.trace {
		return vcycleTraced(ctx, cfg, body, t)
	}
	var samples []vcycleSample
	for t0 := time.Now(); len(samples) == 0 || time.Since(t0) < cfg.seconds; {
		s, err := vcycleSolve(ctx, body, t, nil)
		if err != nil {
			return nil, err
		}
		if len(samples) > 0 && s.wireLength != samples[0].wireLength {
			t.fail(failCheck, fmt.Sprintf("solve %d wire length %d differs from solve 1's %d", len(samples)+1, s.wireLength, samples[0].wireLength))
		}
		samples = append(samples, s)
	}
	var solve, refine, lat []float64
	for _, s := range samples {
		solve = append(solve, s.solve.Seconds())
		refine = append(refine, s.refine.Seconds())
		lat = append(lat, ms(s.solve))
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	pct, tl := tail(lat)
	return &report{
		metrics: map[string]metric{
			"setup_s":       {setup, "s"},
			"solve_s":       {median(solve), "s"},
			"baseline_s":    {median(refine), "s"},
			"p50_ms":        {median(lat), "ms"},
			"tail_ms":       {tl, "ms"},
			"max_rate":      {1 / median(solve), "1/s"},
			"wirelength":    {float64(samples[0].wireLength), "count"},
			"success_share": {t.successShare(), "share"},
			"peak_rss_mb":   {rss, "MB"},
		},
		tally: t,
		notes: append([]string{fmt.Sprintf("solves %d; latency tail is %s of %d samples",
			len(samples), tailLabel(pct), len(lat))}, t.notes()...),
	}, nil
}

// vcycleTraced runs one untraced V-cycle, then one traced one, and reports
// the per-layer metrics of the traced one.
func vcycleTraced(ctx context.Context, cfg config, body []byte, t *tally) (*report, error) {
	plain, err := vcycleSolve(ctx, body, t, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(fmt.Sprintf("vcycle-10k/seed%d", cfg.seed))
	traced, err := vcycleSolve(ctx, body, t, tr)
	if err != nil {
		return nil, err
	}
	derived := map[string]float64{}
	solverDerived(tr, derived)
	if traced.coarse.p != nil {
		replaySTEP4(ctx, tr, []probe{traced.coarse}, derived)
	}
	refines := tr.durations("multilevel.refine")
	var worst time.Duration
	for _, d := range refines {
		worst = max(worst, d)
	}
	derived["multilevel.refine_max_level_ms"] = ms(worst)
	overhead := traced.solve.Seconds()/plain.solve.Seconds() - 1
	lines, err := finishTrace(cfg, tr, t, []string{"vcycle.solve", "multilevel.solve"}, overhead, derived)
	if err != nil {
		return nil, err
	}
	return &report{metrics: layerMetrics(tr, 1, derived), tally: t, notes: append(lines, t.notes()...)}, nil
}

// vcycleSolve decodes the instance, runs the V-cycle, validates and
// encodes the result. The OnLevel callback timestamps each level as
// uncoarsening finishes it (coarsest first, right after the coarse solve);
// when tracing, the coarse starts' OnProgress reports (elapsed since each
// start began) mark where coarsening ends and the coarse solve begins.
func vcycleSolve(ctx context.Context, body []byte, t *tally, tr *tracer) (vcycleSample, error) {
	var s vcycleSample
	if err := ctx.Err(); err != nil {
		return s, err
	}
	t.attempted++
	root := tr.open("vcycle.solve", 0)
	t0 := time.Now()
	id := tr.open("textio.decode", root)
	p, err := textio.ReadProblemBinary(bytes.NewReader(body))
	tr.close(id)
	if err != nil {
		t.fail(failError, fmt.Sprintf("decode: %v", err))
		s.solve = time.Since(t0)
		return s, nil
	}

	var (
		levelAt    []time.Time
		levels     []multilevel.LevelStat
		mu         sync.Mutex
		coarseFrom time.Time
	)
	opts := vcycleOptions()
	opts.OnLevel = func(ls multilevel.LevelStat) {
		levelAt = append(levelAt, time.Now())
		levels = append(levels, ls)
	}
	if tr != nil {
		opts.Coarse.Base.OnProgress = func(pr qbp.Progress) {
			began := time.Now().Add(-pr.Elapsed)
			mu.Lock()
			if coarseFrom.IsZero() || began.Before(coarseFrom) {
				coarseFrom = began
			}
			mu.Unlock()
		}
	}
	solveStart := time.Now()
	res, err := multilevel.Solve(ctx, p, opts)
	solveID := tr.add("multilevel.solve", root, solveStart, time.Now())
	if err != nil {
		t.fail(classifyError(err.Error()), fmt.Sprintf("multilevel: %v", err))
		s.solve = time.Since(t0)
		return s, nil
	}
	if n := len(levelAt); n > 0 {
		s.refine = levelAt[n-1].Sub(levelAt[0])
	}

	id = tr.open("validate.check", root)
	checkResult(t, "vcycle", p, res.Assignment, res.Objective, res.WireLength, res.Feasible)
	tr.close(id)
	id = tr.open("textio.encode", root)
	var out bytes.Buffer
	err = textio.WriteAssignmentBinary(&out, res.Assignment)
	tr.close(id)
	s.solve = time.Since(t0)
	tr.close(root)
	if err != nil {
		t.fail(failError, fmt.Sprintf("encode: %v", err))
	}
	s.wireLength = res.WireLength

	if tr == nil || len(levelAt) == 0 {
		return s, nil
	}
	// The callback timestamps become child spans of multilevel.solve:
	// coarsening runs from the call to the first coarse QBP start (it
	// includes building the coarsest problem and its cluster seed), the
	// coarse solve from there to the coarsest level's OnLevel, and each
	// finer level's refinement from the previous OnLevel to its own.
	if coarseFrom.IsZero() {
		coarseFrom = levelAt[0]
	}
	tr.add("multilevel.coarsen", solveID, solveStart, coarseFrom)
	tr.add("multilevel.coarse_solve", solveID, coarseFrom, levelAt[0])
	for i := 1; i < len(levelAt); i++ {
		tr.add("multilevel.refine", solveID, levelAt[i-1], levelAt[i])
		tr.count("multilevel.refine_moves", float64(levels[i].Moves))
	}
	tr.count("multilevel.levels", float64(len(levels)))
	tr.count("multilevel.coarse_n", float64(levels[0].N))
	tr.count("qbp.solve_ms", ms(levelAt[0].Sub(coarseFrom)))
	recordQBP(tr, 0, res.Coarse.Stats)

	// The replay probes need the coarsest problem, which Solve does not
	// expose: rebuild the (deterministic) hierarchy outside the timed solve.
	h, err := multilevel.Coarsen(p, opts)
	if err != nil {
		return s, fmt.Errorf("rebuilding the hierarchy: %w", err)
	}
	cp, err := h.Problem(h.Levels() - 1)
	if err != nil {
		return s, fmt.Errorf("materializing the coarsest level: %w", err)
	}
	s.coarse = probe{cp, res.Coarse.Assignment}
	return s, nil
}
