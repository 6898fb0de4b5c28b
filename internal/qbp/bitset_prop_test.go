package qbp

// Property tests for the bit-packed membership kernels: the bitset fast
// paths (moved-set diff, dirty-column discovery, popcount partition sizes)
// must be bit-exact against plain bool-slice references recomputed
// independently in the test, across random assignments and every
// multistart worker count — and cancellation must stay transparent to all
// of it. The packed layout is a cost model, never a behavior.

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBitsetDirtyDiscoveryBitExact drives refreshEta over random small
// perturbations (so the incremental path stays active) and asserts that
// the packed moved set and the extracted dirty-column list equal a plain
// bool-slice recomputation, and that the incrementally maintained η equals
// a from-scratch rebuild on a fresh solver.
func TestBitsetDirtyDiscoveryBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		p := repTestInstance(rng, trial)
		s := newTestSolver(p, DefaultPenalty, trial%5 == 4)
		u := make([]int, s.n)
		for j := range u {
			u[j] = rng.Intn(s.m)
		}
		withOmega := trial%2 == 0
		s.refreshEta(u, withOmega) // prime the incremental state
		prev := append([]int(nil), u...)
		for step := 0; step < 10; step++ {
			// Perturb few components: nm*3 <= n keeps the incremental path.
			for c := 0; c < 1+rng.Intn(2); c++ {
				u[rng.Intn(s.n)] = rng.Intn(s.m)
			}
			// Plain references, recomputed from first principles.
			movedPlain := make([]bool, s.n)
			dirtyPlain := make([]bool, s.n)
			nm := 0
			for j := range u {
				if u[j] != prev[j] {
					movedPlain[j] = true
					nm++
				}
			}
			for j := range u {
				if !movedPlain[j] {
					continue
				}
				lo, hi := s.csr.Row(j)
				for k := lo; k < hi; k++ {
					dirtyPlain[s.csr.Col[k]] = true
				}
			}
			var wantDirty []int
			for j, d := range dirtyPlain {
				if d {
					wantDirty = append(wantDirty, j)
				}
			}
			incremental := nm > 0 && nm*3 <= s.n

			got := s.refreshEta(u, withOmega)

			// sc.moved is rebuilt by every refresh diff; compare bit by bit.
			for j := 0; j < s.n; j++ {
				if s.sc.moved.Test(j) != movedPlain[j] {
					t.Fatalf("trial %d step %d: moved[%d] = %v, plain %v",
						trial, step, j, s.sc.moved.Test(j), movedPlain[j])
				}
			}
			if incremental {
				gotDirty := append([]int(nil), s.sc.dirtyCols...)
				if !sort.IntsAreSorted(gotDirty) {
					t.Fatalf("trial %d step %d: dirtyCols not ascending: %v", trial, step, gotDirty)
				}
				if len(gotDirty) != len(wantDirty) {
					t.Fatalf("trial %d step %d: %d dirty columns, plain %d",
						trial, step, len(gotDirty), len(wantDirty))
				}
				for k := range gotDirty {
					if gotDirty[k] != wantDirty[k] {
						t.Fatalf("trial %d step %d: dirtyCols[%d] = %d, plain %d",
							trial, step, k, gotDirty[k], wantDirty[k])
					}
				}
			}

			// η itself must equal a from-scratch rebuild.
			fresh := newTestSolver(p, DefaultPenalty, trial%5 == 4)
			want := fresh.refreshEta(u, withOmega)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("trial %d step %d: incremental η[%d] = %d, full rebuild %d",
						trial, step, r, got[r], want[r])
				}
			}
			copy(prev, u)
		}
	}
}

// TestBitsetSolveInvariantAcrossWorkers pins the determinism contract end
// to end: a fixed seed yields the bit-identical multistart assignment for
// every worker count, with the packed membership kernels underneath.
func TestBitsetSolveInvariantAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 4; trial++ {
		p := repTestInstance(rng, trial)
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			res, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{
				Base: Options{Iterations: 25, Seed: int64(trial)}, Starts: 4, Workers: workers,
			})
			if err != nil {
				t.Fatalf("trial %d w=%d: %v", trial, workers, err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Objective != ref.Objective || res.Penalized != ref.Penalized {
				t.Fatalf("trial %d w=%d: objective %d/%d, reference %d/%d",
					trial, workers, res.Objective, res.Penalized, ref.Objective, ref.Penalized)
			}
			for j := range ref.Assignment {
				if res.Assignment[j] != ref.Assignment[j] {
					t.Fatalf("trial %d w=%d: assignment diverged at component %d", trial, workers, j)
				}
			}
		}
	}
}

// TestBitsetCancellationTransparent cancels solves at a fixed iteration
// boundary and asserts that the returned incumbent is exactly the one an
// uncancelled run of the same seed held at that boundary (as its progress
// snapshot reports it), and that a second cancelled run through a reused
// scratch returns the identical assignment: the packed kernels cannot make
// cancellation observable in the result.
func TestBitsetCancellationTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var warm Scratch
	for trial := 0; trial < 4; trial++ {
		p := repTestInstance(rng, trial)
		stopAt := 3 + trial
		var atStop Progress
		if _, err := Solve(context.Background(), p, Options{
			Iterations: 50,
			Seed:       int64(trial),
			OnProgress: func(pr Progress) {
				if pr.Iteration == stopAt {
					atStop = pr
				}
			},
		}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		run := func(sc *Scratch) *Result {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			res, err := Solve(ctx, p, Options{
				Iterations: 50,
				Seed:       int64(trial),
				Scratch:    sc,
				OnIteration: func(it Iteration) {
					if it.K == stopAt {
						cancel()
					}
				},
			})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return res
		}
		ref := run(nil)
		if !ref.Stopped || ref.Iterations != stopAt {
			t.Fatalf("trial %d: stopped=%v after %d iterations, want stopped after %d",
				trial, ref.Stopped, ref.Iterations, stopAt)
		}
		switch {
		case atStop.BestFeasible != math.MaxInt64:
			if !ref.Feasible || ref.Objective != atStop.BestFeasible {
				t.Fatalf("trial %d: cancelled result %d (feasible %v), incumbent at iteration %d was feasible %d",
					trial, ref.Objective, ref.Feasible, stopAt, atStop.BestFeasible)
			}
		case ref.Penalized != atStop.BestPenalized:
			t.Fatalf("trial %d: cancelled penalized %d, incumbent at iteration %d was %d",
				trial, ref.Penalized, stopAt, atStop.BestPenalized)
		}
		got := run(&warm)
		if got.Objective != ref.Objective || got.Penalized != ref.Penalized {
			t.Fatalf("trial %d: cancelled objectives diverged: %d/%d vs %d/%d",
				trial, got.Objective, got.Penalized, ref.Objective, ref.Penalized)
		}
		for j := range ref.Assignment {
			if got.Assignment[j] != ref.Assignment[j] {
				t.Fatalf("trial %d: cancelled assignment diverged at component %d", trial, j)
			}
		}
	}
}
