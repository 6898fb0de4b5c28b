package qmatrix_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
	"repro/internal/model"
	. "repro/internal/qmatrix"
	"repro/internal/sparsemat"
)

// quickSeed generates small random instances for the quick properties.
type quickSeed struct {
	Seed int64
	N    uint8
}

func (quickSeed) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickSeed{Seed: r.Int63(), N: uint8(2 + r.Intn(5))})
}

func (qs quickSeed) build() (*model.Problem, model.Assignment) {
	rng := rand.New(rand.NewSource(qs.Seed))
	n := int(qs.N)
	grid := geometry.Grid{Rows: 2, Cols: 2}
	dist, _ := grid.DistanceMatrix(geometry.Manhattan)
	c := &model.Circuit{Sizes: make([]int64, n)}
	for j := range c.Sizes {
		c.Sizes[j] = 1
	}
	for j1 := 0; j1 < n; j1++ {
		for j2 := j1 + 1; j2 < n; j2++ {
			if rng.Intn(2) == 0 {
				c.Wires = append(c.Wires, model.Wire{From: j1, To: j2, Weight: 1 + rng.Int63n(4)})
			}
			if rng.Intn(3) == 0 {
				c.Timing = append(c.Timing, model.TimingConstraint{From: j1, To: j2, MaxDelay: rng.Int63n(3)})
			}
		}
	}
	lin := make([][]int64, 4)
	for i := range lin {
		lin[i] = make([]int64, n)
		for j := range lin[i] {
			lin[i][j] = rng.Int63n(5)
		}
	}
	topo := &model.Topology{
		Capacities: []int64{int64(n), int64(n), int64(n), int64(n)},
		Cost:       dist,
		Delay:      dist,
	}
	p := &model.Problem{Circuit: c, Topology: topo, Alpha: 1, Beta: 1, Linear: lin}
	a := make(model.Assignment, n)
	for j := range a {
		a[j] = rng.Intn(4)
	}
	return p, a
}

// Property: yᵀQy on the un-embedded matrix equals the model objective for
// every instance and assignment — the §3.1 transformation is exact.
func TestQuickBaseValueEqualsObjective(t *testing.T) {
	f := func(qs quickSeed) bool {
		p, a := qs.build()
		q := DenseBase(p)
		return Value(q, a, p.M()) == p.Objective(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Q̂ coincides with the base Q on the region of feasible pairs
// (the precondition of Theorem 2), for any penalty.
func TestQuickQhatCoincidesOverR(t *testing.T) {
	f := func(qs quickSeed, rawPen uint8) bool {
		p, _ := qs.build()
		penalty := int64(rawPen) + 1
		base := DenseBase(p)
		qhat := DenseQhat(p, penalty)
		cs := sparsemat.Build(p.Circuit)
		m, n := p.M(), p.N()
		for r1 := 0; r1 < m*n; r1++ {
			i1, j1 := Unpack(r1, m)
			for r2 := 0; r2 < m*n; r2++ {
				i2, j2 := Unpack(r2, m)
				if FeasiblePair(cs, p.Topology.Delay, i1, j1, i2, j2) {
					if qhat[r1][r2] != base[r1][r2] {
						return false
					}
				} else if qhat[r1][r2] != penalty {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: for timing-feasible assignments, yᵀQ̂y equals yᵀQy (Lemma 1 of
// the appendix: coincident matrices agree over F_R).
func TestQuickLemma1(t *testing.T) {
	f := func(qs quickSeed, rawPen uint8) bool {
		p, a := qs.build()
		if !p.TimingFeasible(a) {
			return true // Lemma 1 speaks only about F_R
		}
		penalty := int64(rawPen) + 1
		base := DenseBase(p)
		qhat := DenseQhat(p, penalty)
		return Value(base, a, p.M()) == Value(qhat, a, p.M())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
