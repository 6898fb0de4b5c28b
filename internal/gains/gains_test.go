package gains

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/paperex"
	"repro/internal/sparsemat"
	"repro/internal/testgen"
)

func newTable(t *testing.T, p *model.Problem, a model.Assignment) *Table {
	t.Helper()
	tb, err := New(p, sparsemat.Build(p.Normalized().Circuit), a)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewRejectsBadInitial(t *testing.T) {
	p := paperex.MustNew()
	cs := sparsemat.Build(p.Circuit)
	if _, err := New(p, cs, model.Assignment{0, 1}); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := New(p, cs, model.Assignment{0, 1, 9}); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}

func TestDeltaMatchesRecomputedObjective(t *testing.T) {
	p := paperex.MustNew()
	a := model.Assignment{0, 1, 3}
	tb := newTable(t, p, a)
	if tb.Objective() != p.Objective(a) {
		t.Fatalf("initial objective %d != %d", tb.Objective(), p.Objective(a))
	}
	for j := 0; j < p.N(); j++ {
		for to := 0; to < p.M(); to++ {
			b := a.Clone()
			b[j] = to
			want := p.Objective(b) - p.Objective(a)
			if got := tb.Delta(j, to); got != want {
				t.Fatalf("Delta(%d,%d) = %d, want %d", j, to, got, want)
			}
		}
	}
}

func TestSwapDeltaMatchesRecomputed(t *testing.T) {
	p := paperex.MustNew()
	a := model.Assignment{0, 1, 3}
	tb := newTable(t, p, a)
	for j1 := 0; j1 < p.N(); j1++ {
		for j2 := j1 + 1; j2 < p.N(); j2++ {
			b := a.Clone()
			b[j1], b[j2] = b[j2], b[j1]
			want := p.Objective(b) - p.Objective(a)
			if got := tb.SwapDelta(j1, j2); got != want {
				t.Fatalf("SwapDelta(%d,%d) = %d, want %d", j1, j2, got, want)
			}
		}
	}
}

// checkFresh compares every piece of tb's incremental state — objective,
// loads, membership and each delta row — with a table built from scratch on
// tb's current assignment.
func checkFresh(t *testing.T, tb *Table, p *model.Problem, what string) {
	t.Helper()
	a := tb.Assignment()
	fresh := newTable(t, p, a)
	if got, want := tb.Objective(), p.Normalized().Objective(a); got != want || fresh.Objective() != want {
		t.Fatalf("%s: objective %d, fresh %d, recomputed %d", what, got, fresh.Objective(), want)
	}
	for i := 0; i < p.M(); i++ {
		if tb.Load(i) != fresh.Load(i) || tb.Size(i) != fresh.Size(i) {
			t.Fatalf("%s: partition %d load/size %d/%d, fresh %d/%d", what, i, tb.Load(i), tb.Size(i), fresh.Load(i), fresh.Size(i))
		}
	}
	for j := 0; j < p.N(); j++ {
		got, want := tb.DeltaRow(j), fresh.DeltaRow(j)
		for to := range want {
			if got[to] != want[to] {
				t.Fatalf("%s: Delta(%d,%d) = %d, fresh table %d", what, j, to, got[to], want[to])
			}
		}
	}
}

// checkSwapDelta compares SwapDelta(j1, j2) with the objective difference
// of the swapped assignment.
func checkSwapDelta(t *testing.T, tb *Table, p *model.Problem, j1, j2 int, what string) {
	t.Helper()
	norm := p.Normalized()
	a := tb.Assignment()
	b := a.Clone()
	b[j1], b[j2] = b[j2], b[j1]
	if got, want := tb.SwapDelta(j1, j2), norm.Objective(b)-norm.Objective(a); got != want {
		t.Fatalf("%s: SwapDelta(%d,%d) = %d, want %d", what, j1, j2, got, want)
	}
}

// skewCosts replaces the topology's cost matrix with a random asymmetric
// one, so b[x][y] ≠ b[y][x] and the both-direction coupling bp really sums
// two different entries.
func skewCosts(rng *rand.Rand, p *model.Problem) {
	m := p.M()
	cost := make([][]int64, m)
	for x := range cost {
		cost[x] = make([]int64, m)
		for y := range cost[x] {
			if x != y {
				cost[x][y] = rng.Int63n(7)
			}
		}
	}
	p.Topology.Cost = cost
}

// randomTableInstance draws the instance shapes the table tests sweep:
// dense Bernoulli or sparse AvgDegree wiring, optional linear term, timing
// bounds (which add weight-0 timing-only arcs) and sometimes an asymmetric
// cost matrix.
func randomTableInstance(rng *rand.Rand, trial, maxN int) (*model.Problem, model.Assignment) {
	cfg := testgen.Config{N: 2 + rng.Intn(maxN-1), WithLinear: trial%2 == 0, TimingProb: 0.3}
	if trial%3 != 0 {
		cfg.AvgDegree = 1 + 7*rng.Float64()
	}
	if trial%5 == 4 {
		cfg.GridRows, cfg.GridCols = 3, 3
	}
	p, golden := testgen.Random(rng, cfg)
	if trial%4 == 1 {
		skewCosts(rng, p)
	}
	return p, golden
}

// Property test: after every Apply/ApplySwap of a random sequence, the
// incrementally maintained state equals a fresh table built on the current
// assignment (a wrong neighbor-row shift shows up at the step that made
// it). SwapDelta calls for random j1 are interleaved, so the pinned
// pair-weight row is re-scattered between mutations and each result is
// checked against the objective difference.
func TestIncrementalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		p, golden := randomTableInstance(rng, trial, 200)
		tb := newTable(t, p, golden)
		n := p.N()
		for step := 0; step < 40; step++ {
			what := fmt.Sprintf("trial %d step %d", trial, step)
			if rng.Intn(2) == 0 {
				tb.Apply(rng.Intn(n), rng.Intn(p.M()))
			} else if j1, j2 := rng.Intn(n), rng.Intn(n); j1 != j2 {
				tb.ApplySwap(j1, j2)
			}
			checkFresh(t, tb, p, what)
			for k := 0; k < 3; k++ {
				checkSwapDelta(t, tb, p, rng.Intn(n), rng.Intn(n), what)
			}
		}
	}
}

// FuzzTableOps drives a table through an arbitrary sequence of moves,
// swaps and swap-delta probes, comparing it with a fresh table after every
// mutation.
func FuzzTableOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 7, 2, 9, 4, 4, 1, 0, 5, 2})
	f.Add(int64(2), []byte{1, 0, 1, 0, 1, 2, 2, 1, 0, 0})
	f.Add(int64(7), []byte{2, 5, 6, 0, 7, 7, 1, 1, 3, 8, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		p, golden := randomTableInstance(rng, int(uint64(seed)%60), 40)
		tb := newTable(t, p, golden)
		n, m := p.N(), p.M()
		for k := 0; k+2 < len(ops) && k < 120; k += 3 {
			a, b := int(ops[k+1])%n, int(ops[k+2])
			what := fmt.Sprintf("op %d", k/3)
			switch ops[k] % 3 {
			case 0:
				tb.Apply(a, b%m)
				checkFresh(t, tb, p, what)
			case 1:
				if b %= n; a != b {
					tb.ApplySwap(a, b)
					checkFresh(t, tb, p, what)
				}
			default:
				checkSwapDelta(t, tb, p, a, b%n, what)
			}
		}
	})
}

// The move and swap paths, and the swap-delta probe that re-pins its
// pair-weight row, run without allocating.
func TestHotPathsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, golden := testgen.Random(rng, testgen.Config{N: 300, AvgDegree: 8, GridRows: 4, GridCols: 4, WithLinear: true})
	tb := newTable(t, p, golden)
	n, m := p.N(), p.M()
	for name, op := range map[string]func(){
		"Apply":     func() { tb.Apply(rng.Intn(n), rng.Intn(m)) },
		"ApplySwap": func() { tb.ApplySwap(rng.Intn(n), rng.Intn(n)) },
		"SwapDelta": func() { tb.SwapDelta(rng.Intn(n), rng.Intn(n)) },
	} {
		if a := testing.AllocsPerRun(200, op); a != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, a)
		}
	}
}

func TestAdmissibilityChecks(t *testing.T) {
	p := paperex.MustNew() // unit sizes, unit capacities, D_C(a,b)=D_C(b,c)=1
	a := model.Assignment{0, 1, 3}
	tb := newTable(t, p, a)
	// Moving a onto b's partition violates capacity.
	if tb.CapacityOK(paperex.A, 1) {
		t.Fatal("capacity violation not detected")
	}
	// Moving a to partition 3 (index 2... partition index 2 is slot 3 in the
	// paper's 1-based naming) puts it at distance 2 from b: timing violation.
	if tb.TimingOK(paperex.A, 2) {
		t.Fatal("timing violation not detected")
	}
	// The only free partition is index 2 (slot 3); b may move there
	// (distance 1 to both a at slot 1 and c at slot 4), but c may not
	// (distance 2 to b at slot 2).
	if !tb.MoveOK(paperex.B, 2) {
		t.Fatal("legal move rejected")
	}
	if tb.MoveOK(paperex.C, 2) {
		t.Fatal("timing-violating move accepted")
	}
	// Swapping a and b keeps capacities (unit sizes) but breaks timing:
	// b lands on slot 1, distance 2 from c at slot 4.
	if !tb.SwapCapacityOK(paperex.A, paperex.B) {
		t.Fatal("unit-size swap should keep capacity")
	}
	if tb.SwapTimingOK(paperex.A, paperex.B) {
		t.Fatal("swap timing violation not detected")
	}
	if tb.SwapOK(paperex.A, paperex.B) {
		t.Fatal("SwapOK must combine both checks")
	}
	// Swapping a and c is fully legal: a lands on slot 4 (distance 1 to b),
	// c lands on slot 1 (distance 1 to b).
	if !tb.SwapOK(paperex.A, paperex.C) {
		t.Fatal("legal swap rejected")
	}
}

// Swapping two components that share a wire must leave that wire's
// contribution unchanged — the KL correction term in action.
func TestSwapDeltaDirectCoupling(t *testing.T) {
	p := paperex.MustNew()
	a := model.Assignment{0, 1, 2}
	tb := newTable(t, p, a)
	b := a.Clone()
	b[paperex.A], b[paperex.B] = b[paperex.B], b[paperex.A]
	want := p.Objective(b) - p.Objective(a)
	if got := tb.SwapDelta(paperex.A, paperex.B); got != want {
		t.Fatalf("SwapDelta = %d, want %d", got, want)
	}
	// Same-partition swap is a no-op.
	tb2 := newTable(t, p, model.Assignment{1, 1, 2})
	if got := tb2.SwapDelta(0, 1); got != 0 {
		t.Fatalf("same-partition SwapDelta = %d, want 0", got)
	}
}

// Property: starting from a feasible state, SwapOK(j1,j2) must agree
// exactly with checking the swapped assignment from first principles, and
// MoveOK(j,to) likewise. This pins down the partner-destination handling in
// the swap timing check.
func TestAdmissibilityMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		p, golden := testgen.Random(rng, testgen.Config{N: 6, TimingProb: 0.5, CapSlack: 1.2})
		norm := p.Normalized()
		if !norm.Feasible(golden) {
			t.Fatalf("trial %d: golden start infeasible", trial)
		}
		tb := newTable(t, p, golden)
		for j := 0; j < p.N(); j++ {
			for to := 0; to < p.M(); to++ {
				b := golden.Clone()
				b[j] = to
				if got, want := tb.MoveOK(j, to), norm.Feasible(b); got != want {
					t.Fatalf("trial %d: MoveOK(%d,%d) = %v, model says %v", trial, j, to, got, want)
				}
			}
		}
		for j1 := 0; j1 < p.N(); j1++ {
			for j2 := j1 + 1; j2 < p.N(); j2++ {
				b := golden.Clone()
				b[j1], b[j2] = b[j2], b[j1]
				if got, want := tb.SwapOK(j1, j2), norm.Feasible(b); got != want {
					t.Fatalf("trial %d: SwapOK(%d,%d) = %v, model says %v", trial, j1, j2, got, want)
				}
			}
		}
	}
}

// TestMembershipMaintained drives random Apply/ApplySwap sequences and
// checks the popcount partition sizes and membership bitsets against a
// plain recount of the assignment after every mutation.
func TestMembershipMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		cfg := testgen.Config{N: 8 + rng.Intn(20), WithLinear: trial%2 == 0}
		p, golden := testgen.Random(rng, cfg)
		tb := newTable(t, p, golden)
		check := func(step int) {
			a := tb.Assignment()
			counts := make([]int, p.M())
			for _, i := range a {
				counts[i]++
			}
			for i := 0; i < p.M(); i++ {
				if got := tb.Size(i); got != counts[i] {
					t.Fatalf("trial %d step %d: Size(%d) = %d, recount %d", trial, step, i, got, counts[i])
				}
				mem := tb.Members(i)
				for j := 0; j < p.N(); j++ {
					if mem.Test(j) != (a[j] == i) {
						t.Fatalf("trial %d step %d: Members(%d).Test(%d) = %v, assignment says %v",
							trial, step, i, j, mem.Test(j), a[j] == i)
					}
				}
			}
		}
		check(-1)
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 {
				tb.Apply(rng.Intn(p.N()), rng.Intn(p.M()))
			} else {
				j1, j2 := rng.Intn(p.N()), rng.Intn(p.N())
				if j1 != j2 {
					tb.ApplySwap(j1, j2)
				}
			}
			check(step)
		}
	}
}
