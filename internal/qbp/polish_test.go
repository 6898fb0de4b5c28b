package qbp

// Exactness of the move-row polish: polish must take the same moves, in the
// same order, as the per-pair sweep it replaced, which lives on here as the
// reference — one CSR walk per (component, target) probe and the timing
// test before the delta test.

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/testgen"
)

// referenceMoveDelta is the exact change of yᵀQ̂y when moving j to
// partition to, with everything else fixed at u, evaluated per arc from the
// two per-direction entries: O(deg(j)) per probe.
func referenceMoveDelta(s *solver, u []int, j, to int) int64 {
	cur := u[j]
	if cur == to {
		return 0
	}
	delta := s.p.LinearAt(to, j) - s.p.LinearAt(cur, j)
	cs := s.csr
	lo, hi := cs.Row(j)
	for k := lo; k < hi; k++ {
		o := u[cs.Col[k]]
		c := int(s.class[k])
		w := cs.Weight[k]
		delta += s.pairCost(to, o, c, w) - s.pairCost(cur, o, c, w)
	}
	return delta
}

// referencePolishPass is the per-pair best-improvement sweep.
func referencePolishPass(s *solver, u []int, loads []int64, preserveFeasible bool) bool {
	improved := false
	for j := 0; j < s.n; j++ {
		cur := u[j]
		bestTo, bestDelta := cur, int64(0)
		for to := 0; to < s.m; to++ {
			if to == cur || loads[to]+s.p.Circuit.Sizes[j] > s.p.Topology.Capacities[to] {
				continue
			}
			if preserveFeasible && !s.timingOKAt(u, j, to) {
				continue
			}
			if d := referenceMoveDelta(s, u, j, to); d < bestDelta {
				bestDelta, bestTo = d, to
			}
		}
		if bestTo != cur {
			loads[cur] -= s.p.Circuit.Sizes[j]
			loads[bestTo] += s.p.Circuit.Sizes[j]
			u[j] = bestTo
			improved = true
		}
	}
	return improved
}

// referencePolish is polish with the reference sweep.
func referencePolish(s *solver, u []int, preserveFeasible bool) {
	loads := make([]int64, s.m)
	for j, i := range u {
		loads[i] += s.p.Circuit.Sizes[j]
	}
	for pass := 0; pass < 60; pass++ {
		if !referencePolishPass(s, u, loads, preserveFeasible) {
			break
		}
	}
	if !preserveFeasible && !s.relax {
		s.repairPairs(u, loads)
	}
}

// TestPolishMatchesReference compares polish with the reference in both
// modes, on every repTestInstance shape with timing enforced and relaxed,
// under each of wrapPenalties, from random starts (overloaded ones
// included: polish only guards the target bin's capacity).
func TestPolishMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 36; trial++ {
		p := repTestInstance(rng, trial)
		relax := (trial/3)%2 == 1
		s := newTestSolver(p, wrapPenalties[(trial/6)%len(wrapPenalties)], relax)
		for probe := 0; probe < 3; probe++ {
			start := make([]int, s.n)
			for j := range start {
				start[j] = rng.Intn(s.m)
			}
			for _, preserve := range []bool{false, true} {
				got, want := slices.Clone(start), slices.Clone(start)
				s.polish(got, preserve)
				referencePolish(s, want, preserve)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d probe %d relax=%v preserve=%v: polish diverged from the reference\n got  %v\n want %v",
						trial, probe, relax, preserve, got, want)
				}
			}
		}
	}
}

// TestPolishDoesNotAllocate pins the move-row polish at 0 allocs/op: the
// row buffer lives in the solver's scratch.
func TestPolishDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	p, _ := testgen.Random(rng, testgen.Config{N: 60, AvgDegree: 6, TimingProb: 0.4, WithLinear: true})
	s := newTestSolver(p, DefaultPenalty, false)
	u := make([]int, s.n)
	for j := range u {
		u[j] = rng.Intn(s.m)
	}
	loads := make([]int64, s.m)
	for j, i := range u {
		loads[i] += s.p.Circuit.Sizes[j]
	}
	if a := testing.AllocsPerRun(20, func() { s.moveRow(s.sc.mrow, u, rng.Intn(s.n)) }); a != 0 {
		t.Errorf("moveRow: %v allocs/op, want 0", a)
	}
	for _, preserve := range []bool{false, true} {
		if a := testing.AllocsPerRun(20, func() { s.polishPass(u, loads, preserve) }); a != 0 {
			t.Errorf("polishPass(preserve=%v): %v allocs/op, want 0", preserve, a)
		}
	}
}
