package qbp

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/model"
	"repro/internal/sparsemat"
)

// MultiStartOptions tunes SolveMultiStart.
type MultiStartOptions struct {
	// Base is the per-start configuration; Seed is replaced per start by
	// derivedSeed(Base.Seed, k) and Initial is only used for the first
	// start.
	Base Options
	// Starts is the number of independent runs; ≤ 0 means 4.
	Starts int
	// Workers caps concurrent runs; ≤ 0 means GOMAXPROCS.
	Workers int
}

// derivedSeed mixes the base seed and the start index through the
// splitmix64 finalizer, so every (seed, k) pair draws from an independent
// stream. The naive `seed + k·constant` scheme it replaces made user seed s
// at start k+1 replay the identical stream as seed s+constant at start k —
// correlated starts that defeat the point of multistart. Start 0 keeps the
// base seed unchanged, so a single-start multistart is bit-identical to a
// plain Solve with the same options.
func derivedSeed(base int64, k int) int64 {
	if k == 0 {
		return base
	}
	z := uint64(base) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// SolveMultiStart runs independent seeded solves concurrently and returns
// the best result: the lowest-objective timing-feasible solution if any run
// found one, otherwise the lowest penalized value. The choice is
// deterministic for fixed options (ties broken by start index), regardless
// of scheduling. The paper observes that QBP "maintained the same kind of
// good results from any arbitrary initial solution"; multi-start turns that
// robustness into spare-core speedup — a deliberate extension, since the
// 1993 implementation was sequential.
//
// Cancellation: a ctx already cancelled at entry returns ctx.Err() with no
// work started. A ctx cancelled mid-solve stops feeding new starts, lets
// the in-flight ones stop at their own iteration boundaries, waits for
// every worker to drain (no goroutine leaks), and reduces whatever starts
// completed — the result then carries Stopped=true and the best incumbent
// seen. Only when cancellation preempted every single start does the call
// return ctx.Err(). Finished starts are reduced as they complete, so memory
// does not grow with Starts: a count too large to finish runs until ctx
// stops it and returns the best-so-far.
func SolveMultiStart(ctx context.Context, p *model.Problem, opts MultiStartOptions) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	starts := opts.Starts
	if starts <= 0 {
		starts = 4
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > starts {
		workers = starts
	}
	// Every start solves the same problem, so they share one coupling
	// graph, built by whichever start needs it first.
	graph := &sharedGraph{}

	// Exactly `workers` goroutines drain the start indices — not one
	// goroutine per start parked on a semaphore, which stacked `starts`
	// goroutines (and their solver state) up front. Each worker owns one
	// scratch buffer set, reused across every start it runs: all starts
	// solve the same problem shape, so the per-solve allocations of the
	// pipeline are paid once per worker instead of once per start. Each
	// worker also folds its finished starts into its own partial, so the
	// memory held is O(workers) whatever the start count.
	parts := make([]multiStartPartial, workers)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(part *multiStartPartial) {
			defer wg.Done()
			sc := newScratch(p.M(), p.N())
			// The drain is cancellation-bounded one level up: the feed
			// loop below stops dispatching on ctx.Done and closes jobs,
			// and each Solve polls the same ctx internally.
			//lint:ignore cancel-poll jobs is closed by the ctx-gated feed loop and every Solve polls ctx itself
			for k := range jobs {
				o := opts.Base
				o.Seed = derivedSeed(opts.Base.Seed, k)
				if k > 0 {
					o.Initial = nil // later starts explore from random points
				}
				o.sc = sc
				o.graph = graph
				o.progressStart = k
				r, err := Solve(ctx, p, o)
				part.add(k, r, err)
			}
		}(&parts[w])
	}
	// Feed until done or cancelled; on cancellation the remaining starts
	// are simply never dispatched, the in-flight ones stop at their next
	// check, and the close/Wait below still runs — workers always drain.
feed:
	for k := 0; k < starts; k++ {
		select {
		case jobs <- k:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	var total multiStartPartial
	for _, part := range parts {
		total.merge(part)
	}
	if total.best == nil {
		if total.err != nil {
			return nil, total.err
		}
		if err := ctx.Err(); err != nil {
			return nil, err // cancelled before any start completed
		}
		return nil, errors.New("qbp: no start produced a result")
	}
	// Copy the winner before folding the aggregate telemetry in, so the
	// per-start Result stays intact.
	agg := *total.best
	total.stats.Trajectory = total.best.Stats.Trajectory
	agg.Stats = total.stats
	agg.Stopped = total.stopped || ctx.Err() != nil
	return &agg, nil
}

// sharedGraph is the coupling graph the starts of one SolveMultiStart call
// share read-only. The first start to reach its build step builds it —
// after its own entry checks, where a lone Solve builds, so a deadline that
// expires during the build still leaves that start a best-so-far — and the
// others wait for that build instead of repeating it.
type sharedGraph struct {
	once sync.Once
	csr  *sparsemat.CSR
}

// get returns the coupling graph of the normalized circuit c, building it
// on first use; a nil receiver builds a private one.
func (g *sharedGraph) get(c *model.Circuit) *sparsemat.CSR {
	if g == nil {
		return sparsemat.Build(c)
	}
	g.once.Do(func() { g.csr = sparsemat.Build(c) })
	return g.csr
}

// multiStartPartial is the reduction state of a set of finished starts:
// the best result with its start index, the summed telemetry, whether any
// start stopped early, and the lowest-index solve error. Every field folds
// with an order-independent operation, so partials built by different
// workers merge to the same total however the starts were scheduled.
type multiStartPartial struct {
	best    *Result
	bestK   int
	stats   SolveStats
	stopped bool
	err     error
	errK    int // start index of err; meaningful only when err != nil
}

// add folds start k's outcome in. ctx errors from preempted starts are not
// solve failures — their absence from the reduction is what cancellation
// means.
func (a *multiStartPartial) add(k int, r *Result, err error) {
	switch {
	case err == nil:
		a.merge(multiStartPartial{best: r, bestK: k, stats: r.Stats, stopped: r.Stopped})
	case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		a.merge(multiStartPartial{err: err, errK: k})
	}
}

// merge folds another partial into a.
func (a *multiStartPartial) merge(b multiStartPartial) {
	if b.err != nil && (a.err == nil || b.errK < a.errK) {
		a.err, a.errK = b.err, b.errK
	}
	if b.best == nil {
		return
	}
	a.stats.add(b.stats)
	a.stopped = a.stopped || b.stopped
	if a.best == nil || betterStart(b.best, b.bestK, a.best, a.bestK) {
		a.best, a.bestK = b.best, b.bestK
	}
}

// betterStart is the total order of the multistart reduction: feasible
// before infeasible, then the lower objective (feasible) or penalized value
// (infeasible), then the lower start index.
func betterStart(r *Result, k int, best *Result, bestK int) bool {
	if r.Feasible != best.Feasible {
		return r.Feasible
	}
	rv, bv := r.Penalized, best.Penalized
	if r.Feasible {
		rv, bv = r.Objective, best.Objective
	}
	if rv != bv {
		return rv < bv
	}
	return k < bestK
}
