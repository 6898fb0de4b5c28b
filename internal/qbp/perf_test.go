package qbp

// Exactness tests for the flat performance kernels: the incremental η
// maintenance and the flat penalizedValue must agree bit for bit with their
// straightforward reference implementations — the flat kernels are a pure
// cost saving, never a behavioral change.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/qmatrix"
	"repro/internal/sparsemat"
	"repro/internal/testgen"
)

// newTestSolver builds a solver with the flat kernels initialized, the way
// Solve does internally.
func newTestSolver(p *model.Problem, penalty int64, relax bool) *solver {
	norm := p.Normalized()
	s := &solver{
		p:       norm,
		csr:     sparsemat.Build(norm.Circuit),
		m:       norm.M(),
		n:       norm.N(),
		b:       norm.Topology.Cost,
		d:       norm.Topology.Delay,
		penalty: penalty,
		relax:   relax,
	}
	s.omega = qmatrix.Omega(norm, s.csr, s.effectivePenalty())
	s.initKernel()
	s.sc = newScratch(s.m, s.n)
	return s
}

// checkEtaIncremental drives refreshEta through a sequence of perturbations
// and asserts exact equality with a from-scratch recompute after each one.
func checkEtaIncremental(t *testing.T, seed int64, moves int, withOmega, relax bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, _ := testgen.Random(rng, testgen.Config{
		N: 15 + rng.Intn(25), TimingProb: 0.4, WithLinear: seed%2 == 0,
	})
	s := newTestSolver(p, DefaultPenalty, relax)
	u := make([]int, s.n)
	for j := range u {
		u[j] = rng.Intn(s.m)
	}
	got := s.refreshEta(u, withOmega) // full compute seeds the buffer
	want := make([]int64, s.m*s.n)
	for step := 0; step < 12; step++ {
		// Perturb a random subset (sometimes large, forcing the full-rebuild
		// branch; sometimes empty, the no-op branch).
		for x := 0; x < moves*(step%3); x++ {
			u[rng.Intn(s.n)] = rng.Intn(s.m)
		}
		got = s.refreshEta(u, withOmega)
		s.etaFull(want, u, withOmega)
		for r := range want {
			if got[r] != want[r] {
				i, j := qmatrix.Unpack(r, s.m)
				t.Fatalf("seed=%d step=%d: η[%d][%d] = %d, want %d (incremental diverged)",
					seed, step, i, j, got[r], want[r])
			}
		}
	}
}

func TestEtaIncrementalMatchesFull(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		checkEtaIncremental(t, seed, 1+int(seed%5), seed%3 == 0, seed%4 == 3)
	}
}

func FuzzEtaIncremental(f *testing.F) {
	f.Add(int64(1), 3, false, false)
	f.Add(int64(2), 1, true, false)
	f.Add(int64(3), 8, false, true)
	f.Add(int64(4), 20, true, true)
	f.Fuzz(func(t *testing.T, seed int64, moves int, withOmega, relax bool) {
		if moves < 0 || moves > 64 {
			t.Skip()
		}
		checkEtaIncremental(t, seed, moves, withOmega, relax)
	})
}

// refPenalizedValue is the branchy per-entry reference the flat kernel
// replaced: linear term plus, per ordered coupled pair, the raised penalty
// or the wire coupling.
func refPenalizedValue(s *solver, u []int) int64 {
	var v int64
	for j := 0; j < s.n; j++ {
		v += s.p.LinearAt(u[j], j)
	}
	cs := s.csr
	for j1 := 0; j1 < s.n; j1++ {
		i1 := u[j1]
		lo, hi := cs.Row(j1)
		for k := lo; k < hi; k++ {
			i2, md := u[cs.Col[k]], cs.MaxDelay[k]
			if !s.relax && md != model.Unconstrained && s.d[i1][i2] > md {
				v += s.penalty
			} else {
				v += cs.Weight[k] * s.b[i1][i2]
			}
		}
	}
	return v
}

// wrapPenalties are the penalties the delta tests cycle through: the
// default, one at the auto-penalty ceiling, and one so large that a few
// violations wrap the int64 value. Deltas must match value differences
// modulo 2⁶⁴ in every case.
var wrapPenalties = []int64{DefaultPenalty, AutoPenaltyCeiling, math.MaxInt64/3 + 12345}

// checkMoveRow checks component j's move row against the value differences
// it predicts, for every target: row[to] − row[u[j]] must equal
// value(u with j → to) − value(u). u is restored before returning.
func checkMoveRow(t *testing.T, s *solver, u []int, j int, value func([]int) int64, what string) {
	t.Helper()
	row := make([]int64, s.m)
	s.moveRow(row, u, j)
	cur := u[j]
	before := value(u)
	for to := 0; to < s.m; to++ {
		u[j] = to
		if d, diff := row[to]-row[cur], value(u)-before; d != diff {
			u[j] = cur
			t.Fatalf("%s: move row delta(component %d: %d→%d) = %d, value change %d", what, j, cur, to, d, diff)
		}
	}
	u[j] = cur
}

// TestPenalizedValueMatchesReference checks the value and delta kernels on
// every repTestInstance shape (sparse-sampled, dense Bernoulli with a linear
// term, tiny) under each of wrapPenalties: penalizedValue against the
// per-arc reference, and move-row and joint move deltas against the value
// differences they predict — joint moves of coupled pairs included, whose
// shared arc must count once.
func TestPenalizedValueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 45; trial++ {
		p := repTestInstance(rng, trial)
		s := newTestSolver(p, wrapPenalties[(trial/3)%len(wrapPenalties)], trial%5 == 4)
		u := make([]int, s.n)
		for probe := 0; probe < 10; probe++ {
			for j := range u {
				u[j] = rng.Intn(s.m)
			}
			before := s.penalizedValue(u)
			if want := refPenalizedValue(s, u); before != want {
				t.Fatalf("trial %d: penalizedValue = %d, want %d", trial, before, want)
			}
			// Move-row deltas must match value differences exactly.
			j := rng.Intn(s.n)
			checkMoveRow(t, s, u, j, s.penalizedValue, fmt.Sprintf("trial %d probe %d", trial, probe))
			u[j] = rng.Intn(s.m)
			after := s.penalizedValue(u)
			// So must joint deltas; every other probe pairs j1 with one of
			// its coupled partners.
			j1, j2 := rng.Intn(s.n), rng.Intn(s.n)
			if lo, hi := s.csr.Row(j1); probe%2 == 0 && hi > lo {
				j2 = int(s.csr.Col[lo+rng.Intn(hi-lo)])
			}
			if j1 == j2 {
				continue
			}
			i1, i2 := rng.Intn(s.m), rng.Intn(s.m)
			d := s.jointDeltaPenalized(u, j1, i1, j2, i2)
			u[j1], u[j2] = i1, i2
			if joint := s.penalizedValue(u); joint-after != d {
				t.Fatalf("trial %d: jointDelta(%d→%d, %d→%d) = %d, value change %d",
					trial, j1, i1, j2, i2, d, joint-after)
			}
		}
	}
}

// TestWorkersIndependence is the determinism contract of
// MultiStartOptions.Workers: a fixed seed yields the identical assignment
// however many goroutines share the starts, on Bernoulli and sparse-sampled
// instances alike. Run under -race this also exercises the concurrent
// reduction for data races.
func TestWorkersIndependence(t *testing.T) {
	assertNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		cfg := testgen.Config{N: 30 + rng.Intn(30), TimingProb: 0.3, CapSlack: 1.4}
		if trial%2 == 1 {
			cfg.AvgDegree = 3 + 5*rng.Float64()
		}
		p, _ := testgen.Random(rng, cfg)
		base := MultiStartOptions{Base: Options{Iterations: 25, Seed: int64(trial)}, Starts: 5, Workers: 1}
		ref, err := solveMultiStart(t, context.Background(), p, base)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, workers := range []int{2, 3, 7} {
			o := base
			o.Workers = workers
			got, err := solveMultiStart(t, context.Background(), p, o)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if got.Objective != ref.Objective || got.Penalized != ref.Penalized || got.Stats.Starts != ref.Stats.Starts {
				t.Fatalf("trial %d workers=%d: objective %d/%d over %d starts, want %d/%d over %d",
					trial, workers, got.Objective, got.Penalized, got.Stats.Starts,
					ref.Objective, ref.Penalized, ref.Stats.Starts)
			}
			for j := range ref.Assignment {
				if got.Assignment[j] != ref.Assignment[j] {
					t.Fatalf("trial %d workers=%d: assignment diverged at component %d", trial, workers, j)
				}
			}
		}
	}
}

// TestMultiStartSharedScratch checks that the per-worker scratch reuse does
// not leak state between starts: serial (1 worker) and concurrent runs pick
// the same winner.
func TestMultiStartSharedScratch(t *testing.T) {
	assertNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(101))
	p, _ := testgen.Random(rng, testgen.Config{N: 40, TimingProb: 0.3, CapSlack: 1.4})
	base := Options{Iterations: 15, Seed: 5}
	ref, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{Base: base, Starts: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{Base: base, Starts: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Objective != ref.Objective || got.Penalized != ref.Penalized || got.Feasible != ref.Feasible {
			t.Fatalf("workers=%d: %d/%d/%v, want %d/%d/%v", workers,
				got.Objective, got.Penalized, got.Feasible, ref.Objective, ref.Penalized, ref.Feasible)
		}
		for j := range ref.Assignment {
			if got.Assignment[j] != ref.Assignment[j] {
				t.Fatalf("workers=%d: assignment diverged at component %d", workers, j)
			}
		}
	}
}
