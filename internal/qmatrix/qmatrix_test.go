package qmatrix_test

import (
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/geometry"
	"repro/internal/model"
	"repro/internal/paperex"
	. "repro/internal/qmatrix"
	"repro/internal/sparsemat"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, m := range []int{1, 3, 4, 16} {
		for j := 0; j < 5; j++ {
			for i := 0; i < m; i++ {
				r := Pack(i, j, m)
				gi, gj := Unpack(r, m)
				if gi != i || gj != j {
					t.Fatalf("Unpack(Pack(%d,%d,%d)) = (%d,%d)", i, j, m, gi, gj)
				}
			}
		}
	}
	// r = i + (j-1)M of the paper, 0-based: consecutive i within a column.
	if Pack(0, 0, 4) != 0 || Pack(3, 0, 4) != 3 || Pack(0, 1, 4) != 4 {
		t.Fatal("Pack does not match the paper's column-major packing")
	}
}

// TestPaperExampleQhat reproduces the 12×12 matrix printed in §3.3 of the
// paper entry-for-entry.
func TestPaperExampleQhat(t *testing.T) {
	p := paperex.MustNew()
	got := DenseQhat(p, paperex.Penalty)
	want := paperex.Qhat()
	if len(got) != 12 {
		t.Fatalf("Q̂ is %d×%d, want 12×12", len(got), len(got))
	}
	for r1 := range want {
		for r2 := range want[r1] {
			if got[r1][r2] != want[r1][r2] {
				i1, j1 := Unpack(r1, 4)
				i2, j2 := Unpack(r2, 4)
				t.Fatalf("Q̂[(%d,%d)][(%d,%d)] = %d, want %d",
					i1, j1, i2, j2, got[r1][r2], want[r1][r2])
			}
		}
	}
}

// TestValueMatchesObjective checks that yᵀQy on the un-embedded matrix
// equals the PP objective for every assignment of the paper example.
func TestValueMatchesObjective(t *testing.T) {
	p := paperex.MustNew()
	q := DenseBase(p)
	a := model.Assignment{0, 0, 0}
	m := p.M()
	var rec func(j int)
	rec = func(j int) {
		if j == len(a) {
			if got, want := Value(q, a, m), p.Objective(a); got != want {
				t.Fatalf("Value(%v) = %d, want objective %d", a, got, want)
			}
			return
		}
		for i := 0; i < m; i++ {
			a[j] = i
			rec(j + 1)
		}
	}
	rec(0)
}

// randomProblem builds a small random instance on a 2×2 grid with loose or
// tight capacities.
func randomProblem(rng *rand.Rand, n int, tight bool) *model.Problem {
	grid := geometry.Grid{Rows: 2, Cols: 2}
	dist, _ := grid.DistanceMatrix(geometry.Manhattan)
	c := &model.Circuit{Sizes: make([]int64, n)}
	var total int64
	for j := range c.Sizes {
		c.Sizes[j] = int64(1 + rng.Intn(4))
		total += c.Sizes[j]
	}
	for j1 := 0; j1 < n; j1++ {
		for j2 := j1 + 1; j2 < n; j2++ {
			if rng.Intn(2) == 0 {
				c.Wires = append(c.Wires, model.Wire{From: j1, To: j2, Weight: int64(1 + rng.Intn(3))})
			}
			if rng.Intn(3) == 0 {
				c.Timing = append(c.Timing, model.TimingConstraint{From: j1, To: j2, MaxDelay: int64(rng.Intn(3))})
			}
		}
	}
	cap := total // loose: everything fits anywhere
	if tight {
		cap = total/2 + 2
	}
	topo := &model.Topology{
		Capacities: []int64{cap, cap, cap, cap},
		Cost:       dist,
		Delay:      dist,
	}
	var lin [][]int64
	if rng.Intn(2) == 0 {
		lin = make([][]int64, 4)
		for i := range lin {
			lin[i] = make([]int64, n)
			for j := range lin[i] {
				lin[i][j] = int64(rng.Intn(5))
			}
		}
	}
	p, err := model.NewProblem(c, topo, 1, 1, lin)
	if err != nil {
		panic(err)
	}
	return p
}

// TestTheorem1Equivalence: the exact big-U embedding makes the
// unconstrained-in-C2 problem equivalent to the timing-constrained one —
// same optimal value, and the QBP minimizer is feasible — whenever a
// feasible solution exists.
func TestTheorem1Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	feasibleSeen := 0
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 4+rng.Intn(2), trial%2 == 0)
		exact, err := bruteforce.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Found {
			continue // F_R empty: Theorem 1 does not apply
		}
		feasibleSeen++
		q1, u := DenseTheorem1(p)
		if u <= 0 {
			t.Fatalf("trial %d: non-positive U %d", trial, u)
		}
		emb, err := bruteforce.SolveQBP(p, q1)
		if err != nil {
			t.Fatal(err)
		}
		if !emb.Found {
			t.Fatalf("trial %d: embedded QBP found nothing", trial)
		}
		if emb.Value != exact.Value {
			t.Fatalf("trial %d: embedded optimum %d != constrained optimum %d", trial, emb.Value, exact.Value)
		}
		if !p.TimingFeasible(emb.Assignment) {
			t.Fatalf("trial %d: embedded minimizer violates timing: %v", trial, emb.Assignment)
		}
		if got := p.Objective(emb.Assignment); got != exact.Value {
			t.Fatalf("trial %d: embedded minimizer objective %d != optimum %d", trial, got, exact.Value)
		}
	}
	if feasibleSeen < 10 {
		t.Fatalf("only %d feasible trials; generator too restrictive for a meaningful test", feasibleSeen)
	}
}

// TestTheorem2Soundness: with the soft penalty (50), *if* the minimizer of
// QBP(Q̂) is timing-feasible then it is optimal for the constrained problem.
func TestTheorem2Soundness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	applied := 0
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 4+rng.Intn(2), trial%2 == 1)
		exact, err := bruteforce.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		qhat := DenseQhat(p, 50)
		soft, err := bruteforce.SolveQBP(p, qhat)
		if err != nil {
			t.Fatal(err)
		}
		if !soft.Found || !p.TimingFeasible(soft.Assignment) {
			continue // theorem's hypothesis not met; nothing to check
		}
		applied++
		if !exact.Found {
			t.Fatalf("trial %d: soft minimizer feasible but exact search found nothing", trial)
		}
		if got := p.Objective(soft.Assignment); got != exact.Value {
			t.Fatalf("trial %d: soft minimizer objective %d != constrained optimum %d", trial, got, exact.Value)
		}
	}
	if applied < 10 {
		t.Fatalf("theorem hypothesis met in only %d trials", applied)
	}
}

// TestOmegaIsValidBound: ω_r must dominate Σ_s q̂[r][s]·y_s for every
// capacity-feasible assignment y (equation 2).
func TestOmegaIsValidBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 4, trial%2 == 0)
		const penalty = 50
		cs := sparsemat.Build(p.Circuit)
		omega := Omega(p, cs, penalty)
		qhat := DenseQhat(p, penalty)
		m, n := p.M(), p.N()
		a := make(model.Assignment, n)
		var rec func(j int)
		rec = func(j int) {
			if j == n {
				if !p.CapacityFeasible(a) {
					return
				}
				for r := 0; r < m*n; r++ {
					var sum int64
					for j2, i2 := range a {
						sum += qhat[r][Pack(i2, j2, m)]
					}
					if sum > omega[r] {
						t.Fatalf("trial %d: ω[%d] = %d < column sum %d under %v", trial, r, omega[r], sum, a)
					}
				}
				return
			}
			for i := 0; i < m; i++ {
				a[j] = i
				rec(j + 1)
			}
		}
		rec(0)
	}
}

func TestDenseTheorem1UDominates(t *testing.T) {
	p := paperex.MustNew()
	q, u := DenseTheorem1(p)
	base := DenseBase(p)
	var sum int64
	for _, row := range base {
		for _, v := range row {
			if v < 0 {
				sum -= v
			} else {
				sum += v
			}
		}
	}
	if u <= 2*sum {
		t.Fatalf("U = %d does not satisfy U > 2Σ|q| = %d", u, 2*sum)
	}
	// Every infeasible slot holds exactly U, every feasible slot matches base.
	cs := sparsemat.Build(p.Circuit)
	m, n := p.M(), p.N()
	for r1 := 0; r1 < m*n; r1++ {
		i1, j1 := Unpack(r1, m)
		for r2 := 0; r2 < m*n; r2++ {
			i2, j2 := Unpack(r2, m)
			if FeasiblePair(cs, p.Topology.Delay, i1, j1, i2, j2) {
				if q[r1][r2] != base[r1][r2] {
					t.Fatalf("feasible slot (%d,%d) altered: %d != %d", r1, r2, q[r1][r2], base[r1][r2])
				}
			} else if q[r1][r2] != u {
				t.Fatalf("infeasible slot (%d,%d) = %d, want U=%d", r1, r2, q[r1][r2], u)
			}
		}
	}
}
