package qbp

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/testgen"
)

func TestConstructiveStartProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		p, _ := testgen.Random(rng, testgen.Config{
			N: 20 + rng.Intn(20), TimingProb: 0.3, CapSlack: 1.2 + rng.Float64(),
			WithLinear: trial%2 == 0,
		})
		u, err := ConstructiveStart(p, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		norm := p.Normalized()
		if len(u) != norm.N() || !u.Valid(norm.M()) {
			t.Fatalf("trial %d: incomplete start", trial)
		}
		if !norm.CapacityFeasible(u) {
			t.Fatalf("trial %d: capacity violated", trial)
		}
	}
}

func TestConstructiveStartDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	p, _ := testgen.Random(rng, testgen.Config{N: 25, TimingProb: 0.3})
	a, err := ConstructiveStart(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConstructiveStart(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("nondeterministic at component %d", j)
		}
	}
}

func TestConstructiveStartImpossibleCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	p, _ := testgen.Random(rng, testgen.Config{N: 10})
	for i := range p.Topology.Capacities {
		p.Topology.Capacities[i] = 0
	}
	if _, err := ConstructiveStart(p, 0); err == nil {
		t.Fatal("zero capacities accepted")
	}
}

func TestMinConflictsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 15; trial++ {
		p, _ := testgen.Random(rng, testgen.Config{
			N: 20, GridRows: 2, GridCols: 3, TimingProb: 0.4, CapSlack: 1.4,
		})
		norm := p.Normalized()
		u := make(model.Assignment, p.N())
		// Random capacity-feasible start via first-fit.
		remaining := append([]int64(nil), norm.Topology.Capacities...)
		for j := range u {
			for {
				i := rng.Intn(norm.M())
				if remaining[i] >= norm.Circuit.Sizes[j] {
					u[j] = i
					remaining[i] -= norm.Circuit.Sizes[j]
					break
				}
			}
		}
		before := norm.CountTimingViolations(u)
		left := MinConflicts(p, u, int64(trial), 50*p.N())
		// Reported count must match reality.
		if got := norm.CountTimingViolations(u); got != left {
			t.Fatalf("trial %d: reported %d violations, actual %d", trial, left, got)
		}
		// Capacity feasibility is preserved.
		if !norm.CapacityFeasible(u) {
			t.Fatalf("trial %d: capacity broken by repair", trial)
		}
		// The repair never increases violations (it only accepts
		// non-worsening moves aside from bounded noise, and reports the
		// end state).
		if left > before {
			t.Fatalf("trial %d: violations rose %d → %d", trial, before, left)
		}
	}
}

func TestMinConflictsNoConstraintsIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	p, golden := testgen.Random(rng, testgen.Config{N: 12, TimingProb: 0.0001})
	p.Circuit.Timing = nil
	u := golden.Clone()
	if left := MinConflicts(p, u, 0, 100); left != 0 {
		t.Fatalf("violations on a constraint-free circuit: %d", left)
	}
	for j := range u {
		if u[j] != golden[j] {
			t.Fatal("repair moved components with nothing to repair")
		}
	}
}

// TestMinConflictsAllocationsIndependentOfSteps pins minConflicts'
// allocations to its once-per-call set-up: the repair walk itself reuses
// its buffers, so 5 steps and 500 steps allocate the same.
func TestMinConflictsAllocationsIndependentOfSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	p, golden := testgen.Random(rng, testgen.Config{N: 30, TimingProb: 0.3})
	// A zero bound everywhere asks every constrained pair to share a
	// partition, which the capacities forbid: conflicts remain at every
	// step, so the walk runs its full budget.
	for k := range p.Circuit.Timing {
		p.Circuit.Timing[k].MaxDelay = 0
	}
	u := make(model.Assignment, p.N())
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(5, func() {
			copy(u, golden)
			if MinConflicts(p, u, 1, steps) == 0 {
				t.Fatal("repair cleared an unsatisfiable instance")
			}
		})
	}
	if a, b := allocs(5), allocs(500); a != b {
		t.Fatalf("minConflicts allocations: %v at 5 steps, %v at 500", a, b)
	}
}

func TestEtaComputerMatchesDenseColumnSums(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	p, golden := testgen.Random(rng, testgen.Config{N: 8, TimingProb: 0.4})
	ec := NewEtaComputer(p, DefaultPenalty)
	eta := ec.Compute(golden)
	// Reference: dense column sums over Q̂, with the diagonal (linear)
	// entries charged at every slot per the Gilmore–Lawler refinement.
	norm := p.Normalized()
	m, n := norm.M(), norm.N()
	qhat := denseRef(norm, DefaultPenalty)
	for j2 := 0; j2 < n; j2++ {
		for i2 := 0; i2 < m; i2++ {
			var want float64
			s := i2 + j2*m
			for j1, i1 := range golden {
				if j1 == j2 {
					continue // diagonal handled below
				}
				want += float64(qhat[i1+j1*m][s])
			}
			want += float64(norm.LinearAt(i2, j2))
			if eta[i2][j2] != want {
				t.Fatalf("η[%d][%d] = %v, want %v", i2, j2, eta[i2][j2], want)
			}
		}
	}
}

// denseRef builds Q̂ with the same semantics as qmatrix.DenseQhat, inlined
// to keep this test independent of that package's implementation.
func denseRef(p *model.Problem, penalty int64) [][]int64 {
	m, n := p.M(), p.N()
	q := make([][]int64, m*n)
	for r := range q {
		q[r] = make([]int64, m*n)
	}
	b, d := p.Topology.Cost, p.Topology.Delay
	type key struct{ a, b int }
	w := map[key]int64{}
	dc := map[key]int64{}
	for _, wire := range p.Circuit.Wires {
		w[key{wire.From, wire.To}] += wire.Weight
		w[key{wire.To, wire.From}] += wire.Weight
	}
	for _, t := range p.Circuit.Timing {
		for _, k := range []key{{t.From, t.To}, {t.To, t.From}} {
			if cur, ok := dc[k]; !ok || t.MaxDelay < cur {
				dc[k] = t.MaxDelay
			}
		}
	}
	for j1 := 0; j1 < n; j1++ {
		for j2 := 0; j2 < n; j2++ {
			if j1 == j2 {
				continue
			}
			k := key{j1, j2}
			for i1 := 0; i1 < m; i1++ {
				for i2 := 0; i2 < m; i2++ {
					bound, constrained := dc[k]
					if constrained && d[i1][i2] > bound {
						q[i1+j1*m][i2+j2*m] = penalty
					} else {
						q[i1+j1*m][i2+j2*m] = w[k] * b[i1][i2]
					}
				}
			}
		}
	}
	return q
}
