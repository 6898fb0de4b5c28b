package qbp

// Exactness tests for the CSR kernels against references that share none
// of their code: the per-arc value reference, value differences for the
// move deltas, and the dense Q̂ of qmatrix for values and η — across random
// instances from sparse-sampled to dense Bernoulli.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flatmat"
	"repro/internal/model"
	"repro/internal/qmatrix"
	"repro/internal/sparsemat"
	"repro/internal/testgen"
)

// repTestInstance draws instances across the density spectrum: sparse
// sampled (bounded average degree), dense Bernoulli, and tiny.
func repTestInstance(rng *rand.Rand, trial int) *model.Problem {
	var cfg testgen.Config
	switch trial % 3 {
	case 0:
		cfg = testgen.Config{N: 30 + rng.Intn(40), AvgDegree: 2 + 4*rng.Float64(), TimingProb: 0.4}
	case 1:
		cfg = testgen.Config{N: 15 + rng.Intn(20), WireProb: 0.6, TimingProb: 0.4, WithLinear: true}
	default:
		cfg = testgen.Config{N: 4 + rng.Intn(6), WireProb: 0.4, TimingProb: 0.5}
	}
	p, _ := testgen.Random(rng, cfg)
	return p
}

// FuzzRepEquality checks the CSR kernels against the dense Q̂ (or Q when
// timing is relaxed) built by qmatrix: penalizedValue against yᵀQ̂y and
// the per-arc reference, every move-row delta against the difference of
// two yᵀQ̂y evaluations, and the full η rebuild against Q̂'s column sums,
// with the linear diagonal charged at every slot. The penalty is drawn
// from wrapPenalties by seed/4, so the wrapping case is fuzzed too.
func FuzzRepEquality(f *testing.F) {
	f.Add(int64(1), 0, false)
	f.Add(int64(2), 1, false)
	f.Add(int64(3), 2, true)
	f.Add(int64(4), 0, false) // the auto-penalty ceiling
	f.Add(int64(8), 1, false) // a penalty whose sums wrap
	f.Fuzz(func(t *testing.T, seed int64, shape int, relax bool) {
		rng := rand.New(rand.NewSource(seed))
		p := repTestInstance(rng, shape)
		s := newTestSolver(p, wrapPenalties[uint64(seed)/4%uint64(len(wrapPenalties))], relax)
		q := qmatrix.DenseBase(s.p)
		if !relax {
			q = qmatrix.DenseQhat(s.p, s.penalty)
		}
		m := s.m
		u := make(model.Assignment, s.n)
		for probe := 0; probe < 4; probe++ {
			for j := range u {
				u[j] = rng.Intn(m)
			}
			val := qmatrix.Value(q, u, m)
			if got := s.penalizedValue(u); got != val {
				t.Fatalf("probe %d: penalizedValue = %d, yᵀQ̂y = %d", probe, got, val)
			}
			if ref := refPenalizedValue(s, u); ref != val {
				t.Fatalf("probe %d: per-arc reference = %d, yᵀQ̂y = %d", probe, ref, val)
			}

			s.etaFull(s.sc.etaI, u, false)
			for j2 := 0; j2 < s.n; j2++ {
				for i2 := 0; i2 < m; i2++ {
					c := qmatrix.Pack(i2, j2, m)
					want := s.p.LinearAt(i2, j2)
					for j1, i1 := range u {
						if j1 != j2 {
							want += q[qmatrix.Pack(i1, j1, m)][c]
						}
					}
					if got := s.sc.etaI[c]; got != want {
						t.Fatalf("probe %d: η[%d][%d] = %d, Q̂ column sum %d", probe, i2, j2, got, want)
					}
				}
			}

			value := func(u []int) int64 { return qmatrix.Value(q, u, m) }
			checkMoveRow(t, s, u, rng.Intn(s.n), value, fmt.Sprintf("probe %d", probe))
		}
	})
}

// TestDelayClasses checks the kernels' per-arc class array: the sorted
// distinct finite budgets, and every arc's class naming its own budget
// (flatmat.UnconstrainedClass for arcs without one).
func TestDelayClasses(t *testing.T) {
	c := &model.Circuit{
		Sizes: []int64{1, 1, 1, 1},
		Wires: []model.Wire{{From: 0, To: 1, Weight: 2}, {From: 2, To: 3, Weight: 1}},
		Timing: []model.TimingConstraint{
			{From: 0, To: 1, MaxDelay: 5},
			{From: 1, To: 2, MaxDelay: 2},
			{From: 2, To: 3, MaxDelay: 5},
		},
	}
	cs := sparsemat.Build(c)
	bounds, class := delayClasses(cs)
	if len(bounds) != 2 || bounds[0] != 2 || bounds[1] != 5 {
		t.Fatalf("bounds = %v, want [2 5]", bounds)
	}
	if len(class) != cs.NNZ() {
		t.Fatalf("%d classes for %d arcs", len(class), cs.NNZ())
	}
	for k, md := range cs.MaxDelay {
		switch {
		case md == model.Unconstrained && class[k] != flatmat.UnconstrainedClass:
			t.Fatalf("arc %d unconstrained but class %d", k, class[k])
		case md != model.Unconstrained && bounds[class[k]] != md:
			t.Fatalf("arc %d bound %d but class %d (bound %d)", k, md, class[k], bounds[class[k]])
		}
	}
}

// With timing relaxed the budgets are ignored entirely: every arc is
// unconstrained, while the enforced solver on the same instance sees the
// finite classes.
func TestRelaxClassesAllUnconstrained(t *testing.T) {
	p, _ := testgen.Random(rand.New(rand.NewSource(2)), testgen.Config{N: 20, TimingProb: 0.5})
	relaxed := newTestSolver(p, DefaultPenalty, true)
	if len(relaxed.class) != relaxed.csr.NNZ() {
		t.Fatalf("%d classes for %d arcs", len(relaxed.class), relaxed.csr.NNZ())
	}
	for k, c := range relaxed.class {
		if c != flatmat.UnconstrainedClass {
			t.Fatalf("relaxed arc %d: class %d, want UnconstrainedClass", k, c)
		}
	}
	enforced := newTestSolver(p, DefaultPenalty, false)
	bounded := 0
	for _, c := range enforced.class {
		if c != flatmat.UnconstrainedClass {
			bounded++
		}
	}
	if bounded == 0 {
		t.Fatal("enforced solver found no bounded arc; the instance needs timing constraints")
	}
}
