package qbp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sparsemat"
	"repro/internal/testgen"
)

// largeProblem draws an instance big enough that a full solve takes far
// longer than the deadlines the tests below impose.
func largeProblem(t *testing.T) *model.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	p, _ := testgen.Random(rng, testgen.Config{N: 400, GridRows: 4, GridCols: 4, TimingProb: 0.2})
	return p
}

func TestSolveCancelledBeforeEntry(t *testing.T) {
	p := largeProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, p, Options{Iterations: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := solveMultiStart(t, ctx, p, MultiStartOptions{Starts: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveMultiStart on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := FeasibleStart(ctx, p, 1, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("FeasibleStart on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestSolveDeadlineReturnsBestSoFar(t *testing.T) {
	p := largeProblem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := Solve(ctx, p, Options{Iterations: 1 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("deadline expired but Stopped not set")
	}
	norm := p.Normalized()
	if len(res.Assignment) != p.N() || !norm.CapacityFeasible(res.Assignment) {
		t.Fatal("best-so-far assignment is not capacity-feasible")
	}
}

// TestMultiStartDeadlineBestSoFar is the acceptance-criterion scenario: a
// 50 ms deadline on a large instance yields a capacity-feasible incumbent
// with Stopped set and leaks no goroutines.
func TestMultiStartDeadlineBestSoFar(t *testing.T) {
	p := largeProblem(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := solveMultiStart(t, ctx, p, MultiStartOptions{
		Base:   Options{Iterations: 1 << 20, Seed: 3},
		Starts: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("deadline expired but Stopped not set")
	}
	norm := p.Normalized()
	if len(res.Assignment) != p.N() || !norm.CapacityFeasible(res.Assignment) {
		t.Fatal("best-so-far assignment is not capacity-feasible")
	}
	if res.Stats.Starts < 1 {
		t.Fatalf("reduction folded %d starts, want >= 1", res.Stats.Starts)
	}
	waitGoroutines(t, base)
}

// TestMultiStartHugeStartCount: a start count far beyond what can finish
// must not be allocated up front. The solve runs to its deadline and
// returns the best-so-far with Stopped set.
func TestMultiStartHugeStartCount(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p, _ := testgen.Random(rng, testgen.Config{N: 30, TimingProb: 0.3})
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := solveMultiStart(t, ctx, p, MultiStartOptions{
		Base:   Options{Iterations: 5, Seed: 2},
		Starts: math.MaxInt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("deadline expired but Stopped not set")
	}
	if len(res.Assignment) != p.N() || !p.Normalized().CapacityFeasible(res.Assignment) {
		t.Fatal("best-so-far assignment is not capacity-feasible")
	}
	if res.Stats.Starts < 1 {
		t.Fatalf("reduction folded %d starts, want >= 1", res.Stats.Starts)
	}
	waitGoroutines(t, base)
}

// TestMultiStartCancelMidSolve cancels from inside a progress callback —
// deterministically mid-solve — and expects a valid reduced result, not a
// panic or an error.
func TestMultiStartCancelMidSolve(t *testing.T) {
	p := largeProblem(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Iterations: 1 << 20, Seed: 5}
	opts.OnProgress = func(pr Progress) {
		if pr.Iteration >= 2 {
			cancel()
		}
	}
	res, err := solveMultiStart(t, ctx, p, MultiStartOptions{Base: opts, Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("cancelled mid-solve but Stopped not set")
	}
	norm := p.Normalized()
	if !norm.CapacityFeasible(res.Assignment) {
		t.Fatal("best-so-far assignment is not capacity-feasible")
	}
	waitGoroutines(t, base)
}

// TestSolveContextTransparency: a context that never fires must leave the
// solve bit-identical to context.Background().
func TestSolveContextTransparency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p, _ := testgen.Random(rng, testgen.Config{N: 24, TimingProb: 0.3})
	a, err := Solve(context.Background(), p, Options{Iterations: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := Solve(ctx, p, Options{Iterations: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stopped || b.Stopped {
		t.Fatal("uncancelled solve reported Stopped")
	}
	if a.Objective != b.Objective || a.Penalized != b.Penalized {
		t.Fatalf("live context perturbed the solve: %d/%d vs %d/%d",
			a.Objective, a.Penalized, b.Objective, b.Penalized)
	}
	for j := range a.Assignment {
		if a.Assignment[j] != b.Assignment[j] {
			t.Fatalf("assignments diverge at component %d", j)
		}
	}
}

// TestSolveStatsPopulated checks the telemetry side of the contract on an
// ordinary (uncancelled) solve.
func TestSolveStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p, _ := testgen.Random(rng, testgen.Config{N: 24, TimingProb: 0.3})
	var progressCalls int
	res, err := Solve(context.Background(), p, Options{
		Iterations: 15,
		Seed:       2,
		OnProgress: func(pr Progress) { progressCalls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Starts != 1 || st.Iterations != res.Iterations {
		t.Fatalf("stats count starts=%d iterations=%d, want 1/%d", st.Starts, st.Iterations, res.Iterations)
	}
	if st.EtaFull+st.EtaIncremental < st.Iterations {
		t.Fatalf("η rebuilds (%d full + %d incremental) < iterations (%d)",
			st.EtaFull, st.EtaIncremental, st.Iterations)
	}
	if len(st.Trajectory) == 0 || st.Trajectory[0].Iteration != 0 {
		t.Fatalf("trajectory missing its initial point: %+v", st.Trajectory)
	}
	for i := 1; i < len(st.Trajectory); i++ {
		if st.Trajectory[i].Penalized >= st.Trajectory[i-1].Penalized {
			t.Fatalf("trajectory not strictly improving at %d: %+v", i, st.Trajectory)
		}
	}
	if progressCalls != res.Iterations {
		t.Fatalf("OnProgress called %d times, want %d", progressCalls, res.Iterations)
	}
}

// TestMultiStartStatsAggregates checks the deterministic reduction of
// telemetry across starts.
func TestMultiStartStatsAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p, _ := testgen.Random(rng, testgen.Config{N: 20, TimingProb: 0.3})
	res, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{
		Base:   Options{Iterations: 10, Seed: 4},
		Starts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped {
		t.Fatal("uncancelled multistart reported Stopped")
	}
	if res.Stats.Starts != 3 {
		t.Fatalf("Stats.Starts = %d, want 3", res.Stats.Starts)
	}
	if res.Stats.Iterations < 10 {
		t.Fatalf("aggregate iterations = %d, want >= 10", res.Stats.Iterations)
	}
	if nnz := sparsemat.Build(p.Normalized().Circuit).NNZ(); res.Stats.NNZ != nnz || res.Stats.Density <= 0 {
		t.Fatalf("Stats.NNZ = %d (density %v), want %d arcs and a positive density",
			res.Stats.NNZ, res.Stats.Density, nnz)
	}
}
