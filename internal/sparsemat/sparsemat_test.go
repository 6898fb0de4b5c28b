package sparsemat

import (
	"math/rand"
	"testing"

	"repro/internal/adjacency"
	"repro/internal/model"
)

// randomCircuit draws a circuit with roughly avgDeg distinct partners per
// component and a timing bound on about a third of the coupled pairs.
func randomCircuit(rng *rand.Rand, n int, avgDeg float64) *model.Circuit {
	c := &model.Circuit{Name: "sm", Sizes: make([]int64, n)}
	for j := range c.Sizes {
		c.Sizes[j] = 1
	}
	pairs := int(float64(n) * avgDeg / 2)
	for p := 0; p < pairs; p++ {
		j1, j2 := rng.Intn(n), rng.Intn(n)
		if j1 == j2 {
			continue
		}
		c.Wires = append(c.Wires, model.Wire{From: j1, To: j2, Weight: 1 + rng.Int63n(5)})
		if rng.Intn(3) == 0 {
			c.Timing = append(c.Timing, model.TimingConstraint{From: j1, To: j2, MaxDelay: 1 + rng.Int63n(4)})
		}
	}
	// A timing-only pair exercises the weight-0 arcs.
	if n >= 2 {
		c.Timing = append(c.Timing, model.TimingConstraint{From: 0, To: n - 1, MaxDelay: 2})
	}
	return c
}

func TestFromListsMirrorsAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		l := adjacency.Build(randomCircuit(rng, n, 1+4*rng.Float64()))
		_, classes := l.DelayClasses()
		c := FromLists(l, classes)
		if c.N != l.N || c.NNZ() != l.NNZ() {
			t.Fatalf("trial %d: shape N=%d nnz=%d, want %d/%d", trial, c.N, c.NNZ(), l.N, l.NNZ())
		}
		for j := 0; j < n; j++ {
			lo, hi := c.Row(j)
			if hi-lo != len(l.Arcs[j]) || c.Degree(j) != l.Degree(j) {
				t.Fatalf("trial %d: row %d length %d, want %d", trial, j, hi-lo, len(l.Arcs[j]))
			}
			for x, a := range l.Arcs[j] {
				k := lo + x
				if int(c.Col[k]) != a.Other || c.Weight[k] != a.Weight || c.MaxDelay[k] != a.MaxDelay {
					t.Fatalf("trial %d: arc (%d,%d) diverged", trial, j, a.Other)
				}
				if int(c.Class[k]) != classes[j][x] {
					t.Fatalf("trial %d: class of arc (%d,%d) = %d, want %d",
						trial, j, a.Other, c.Class[k], classes[j][x])
				}
				if x > 0 && c.Col[k] <= c.Col[k-1] {
					t.Fatalf("trial %d: row %d not strictly ascending", trial, j)
				}
			}
		}
	}
}

func TestNilClassesMarkEverythingUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := adjacency.Build(randomCircuit(rng, 20, 3))
	c := FromLists(l, nil)
	for k := range c.Class {
		if c.Class[k] != UnconstrainedClass {
			t.Fatalf("arc %d: class %d, want UnconstrainedClass", k, c.Class[k])
		}
	}
}

func TestDensity(t *testing.T) {
	empty := FromLists(adjacency.Build(&model.Circuit{Name: "e", Sizes: []int64{1}}), nil)
	if empty.Density() != 0 {
		t.Fatal("single-component density must be 0")
	}
	c := &model.Circuit{Name: "pair", Sizes: []int64{1, 1},
		Wires: []model.Wire{{From: 0, To: 1, Weight: 1}}}
	pair := FromLists(adjacency.Build(c), nil)
	if pair.Density() != 1 {
		t.Fatalf("fully-coupled pair density = %v, want 1", pair.Density())
	}
}
