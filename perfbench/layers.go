package main

import (
	"context"
	"time"

	"repro/internal/gap"
	"repro/internal/model"
	"repro/internal/qbp"
)

// recordQBP adds one QBP solve's telemetry to the tracer: the SolveStats
// phase times and counters, and — when solveSpan is a span of that single
// solve — the three phases as its child spans, laid end to end from its
// start (SolveStats gives durations, not timestamps).
func recordQBP(tr *tracer, solveSpan int, st qbp.SolveStats) {
	if tr == nil {
		return
	}
	tr.count("qbp.setup_ms", ms(st.SetupTime))
	tr.count("qbp.iter_ms", ms(st.IterTime))
	tr.count("qbp.polish_ms", ms(st.PolishTime))
	tr.count("qbp.iterations", float64(st.Iterations))
	tr.count("qbp.restarts", float64(st.Restarts))
	tr.count("qbp.eta_full", float64(st.EtaFull))
	tr.count("qbp.eta_incremental", float64(st.EtaIncremental))
	if solveSpan == 0 {
		return
	}
	tr.mu.Lock()
	at := tr.epoch.Add(time.Duration(tr.spans[solveSpan-1].Start))
	tr.mu.Unlock()
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"qbp.setup", st.SetupTime}, {"qbp.iter", st.IterTime}, {"qbp.polish", st.PolishTime}} {
		tr.add(ph.name, solveSpan, at, at.Add(ph.d))
		at = at.Add(ph.d)
	}
}

// allocated runs fn and, when tracing, adds the heap allocations it made
// to the counter "<layer>.mallocs" and one call to "<layer>.calls".
func allocated(tr *tracer, layer string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	m0 := mallocs()
	fn()
	tr.count(layer+".mallocs", float64(mallocs()-m0))
	tr.count(layer+".calls", 1)
}

// solverDerived turns the raw QBP, GFM and GKL counters into the per-layer
// ratios: time per iteration, the incremental share of η rebuilds and
// allocations per call.
func solverDerived(tr *tracer, derived map[string]float64) {
	get := func(name string) float64 { v, _ := tr.counter(name); return v }
	if it := get("qbp.iterations"); it > 0 {
		derived["qbp.iter_us"] = 1000 * get("qbp.iter_ms") / it
	}
	if all := get("qbp.eta_full") + get("qbp.eta_incremental"); all > 0 {
		derived["qbp.eta_incremental_share"] = get("qbp.eta_incremental") / all
	}
	for _, layer := range []string{"qbp", "fm", "kl"} {
		if calls := get(layer + ".calls"); calls > 0 {
			derived[layer+".allocs"] = get(layer+".mallocs") / calls
		}
	}
}

// probe is a problem and an assignment to replay STEP 3 and STEP 4 at.
type probe struct {
	p *model.Problem
	u model.Assignment
}

// replayReps is how many times each replay call repeats per probe.
const replayReps = 20

// replaySTEP4 times the two kernels of one Burkard iteration outside the
// solver: a full η rebuild (qbp.EtaComputer.Compute) and the STEP 4 GAP
// subproblem on that η, with the settings of the first iteration (swap
// refinement, 3 passes, integer costs). It sets qbp.eta_full_us,
// gap.step4_us and gap.step4_allocs, each per call over all probes.
func replaySTEP4(ctx context.Context, tr *tracer, probes []probe, derived map[string]float64) {
	if len(probes) == 0 {
		return
	}
	root := tr.open("bench.replay", 0)
	defer tr.close(root)
	var etaTime, gapTime time.Duration
	var gapAllocs uint64
	for _, pr := range probes {
		ec := qbp.NewEtaComputer(pr.p, qbp.DefaultPenalty)
		var eta [][]float64
		id := tr.open("replay.eta_full", root)
		t0 := time.Now()
		for r := 0; r < replayReps; r++ {
			eta = ec.Compute(pr.u)
		}
		etaTime += time.Since(t0)
		tr.close(id)

		m, n := pr.p.M(), pr.p.N()
		flat := make([]int64, m*n)
		for i, row := range eta {
			for j, v := range row {
				flat[i+j*m] = int64(v)
			}
		}
		in := &gap.Instance{FlatCosts: flat, Sizes: pr.p.Circuit.Sizes, Capacities: pr.p.Topology.Capacities}
		opts := gap.Options{Refine: gap.RefineSwap, MaxRefinePasses: 3}
		id = tr.open("replay.gap_step4", root)
		m0 := mallocs()
		t0 = time.Now()
		for r := 0; r < replayReps; r++ {
			gap.Solve(ctx, in, opts)
		}
		gapTime += time.Since(t0)
		gapAllocs += mallocs() - m0
		tr.close(id)
	}
	calls := float64(replayReps * len(probes))
	derived["qbp.eta_full_us"] = us(etaTime) / calls
	derived["gap.step4_us"] = us(gapTime) / calls
	derived["gap.step4_allocs"] = float64(gapAllocs) / calls
}
