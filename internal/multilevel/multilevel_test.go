package multilevel

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/qbp"
	"repro/internal/sparsemat"
)

// testInstance generates a deterministic synthetic problem.
func testInstance(t testing.TB, n, wires, timing int, seed int64) *model.Problem {
	t.Helper()
	in, err := gen.Generate(gen.Params{Spec: gen.Spec{
		Name:              "ml-test",
		Components:        n,
		Wires:             int64(wires),
		TimingConstraints: timing,
		Seed:              seed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return in.Problem
}

// TestIdentityContraction: contracting with the identity cluster map
// (every component its own cluster) must reproduce the level graph
// bit-exactly — the degenerate case of the satellite "identity contraction
// reproduces the flat solve".
func TestIdentityContraction(t *testing.T) {
	p := testInstance(t, 200, 800, 300, 1).Normalized()
	g := &graph{CSR: sparsemat.Build(p.Circuit), sizes: p.Circuit.Sizes}
	cl := make([]int32, g.N)
	for j := range cl {
		cl[j] = int32(j)
	}
	cg, intra, err := g.contract(cl, g.N, maxDiagDelay(p.Topology.Delay), false, true)
	if err != nil {
		t.Fatal(err)
	}
	for c, w := range intra {
		if w != 0 {
			t.Fatalf("identity contraction folded intra weight %d at cluster %d", w, c)
		}
	}
	if !reflect.DeepEqual(cg.CSR, g.CSR) {
		t.Fatal("identity contraction changed the coupling graph")
	}
	if !reflect.DeepEqual(cg.sizes, g.sizes) {
		t.Fatal("identity contraction changed the sizes")
	}
}

// TestNoCoarsenMatchesFlatSolve: with CoarsenTarget ≥ N the V-cycle is the
// flat multistart solve — same assignment, same objective, bit-exactly.
func TestNoCoarsenMatchesFlatSolve(t *testing.T) {
	p := testInstance(t, 300, 1400, 500, 2)
	co := qbp.MultiStartOptions{
		Base:   qbp.Options{Iterations: 25, Seed: 7},
		Starts: 2,
	}
	ml, err := Solve(context.Background(), p, Options{Coarse: co, CoarsenTarget: p.N()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Levels) != 1 {
		t.Fatalf("expected identity path (1 level), got %d", len(ml.Levels))
	}
	flat, err := qbp.SolveMultiStart(context.Background(), p, co)
	if err != nil {
		t.Fatal(err)
	}
	if ml.Objective != flat.Objective || ml.Feasible != flat.Feasible {
		t.Fatalf("identity path diverged from flat solve: obj %d/%v vs %d/%v",
			ml.Objective, ml.Feasible, flat.Objective, flat.Feasible)
	}
	for j := range flat.Assignment {
		if ml.Assignment[j] != flat.Assignment[j] {
			t.Fatalf("assignment diverged at component %d: %d vs %d", j, ml.Assignment[j], flat.Assignment[j])
		}
	}
}

// checkProjection asserts the two hierarchy invariants for one coarse
// assignment: the level objective equals the finest objective of the
// projection, and feasibility carries down (loads are identical,
// timing-feasible stays timing-feasible).
func checkProjection(t *testing.T, h *Hierarchy, k int, ak model.Assignment) {
	t.Helper()
	lp, err := h.Problem(k)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.Problem(0)
	if err != nil {
		t.Fatal(err)
	}
	proj := h.Project(k, ak)
	if got, want := fp.Objective(proj), lp.Objective(ak); got != want {
		t.Fatalf("level %d: projected η %d != coarse η %d", k, got, want)
	}
	if got, want := h.norm.Objective(proj), lp.Objective(ak); got != want {
		t.Fatalf("level %d: normalized-problem η %d != coarse η %d", k, got, want)
	}
	cl, fl := lp.Loads(ak), fp.Loads(proj)
	for i := range cl {
		if cl[i] != fl[i] {
			t.Fatalf("level %d: load diverged on partition %d: %d vs %d", k, i, cl[i], fl[i])
		}
	}
	if lp.TimingFeasible(ak) && !fp.TimingFeasible(proj) {
		t.Fatalf("level %d: timing-feasible coarse assignment projects to a violating fine assignment", k)
	}
}

// TestProjectionExactness: for every hierarchy level and a batch of random
// coarse assignments, η computed on the coarse graph equals η of the
// projected assignment on the fine graph, loads agree exactly, and timing
// feasibility projects down — the tentpole's bit-exact accounting contract.
func TestProjectionExactness(t *testing.T) {
	p := testInstance(t, 600, 2600, 900, 3)
	h, err := Coarsen(p, Options{CoarsenTarget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() < 3 {
		t.Fatalf("expected a deep hierarchy, got %d levels", h.Levels())
	}
	rng := rand.New(rand.NewSource(42))
	m := p.M()
	for k := 1; k < h.Levels(); k++ {
		for trial := 0; trial < 8; trial++ {
			ak := make(model.Assignment, h.LevelSize(k))
			for j := range ak {
				ak[j] = rng.Intn(m)
			}
			checkProjection(t, h, k, ak)
		}
	}
}

// TestProjectionWithLinearAndDiagonalCost covers the intra-cluster folding
// path: a topology with nonzero diagonal cost entries prices internalized
// wires at 2·b[i][i], which contraction must fold into the coarse linear
// matrix — plus an explicit fine-level linear matrix to exercise the
// column-sum folding.
func TestProjectionWithLinearAndDiagonalCost(t *testing.T) {
	base := testInstance(t, 400, 1700, 0, 4)
	m := base.M()
	cost := make([][]int64, m)
	for i := range cost {
		cost[i] = append([]int64(nil), base.Topology.Cost[i]...)
		cost[i][i] = int64(1 + i%3) // nonzero diagonal: co-location is not free
	}
	topo := &model.Topology{
		Capacities: base.Topology.Capacities,
		Cost:       cost,
		Delay:      base.Topology.Delay,
	}
	lin := make([][]int64, m)
	for i := range lin {
		lin[i] = make([]int64, base.N())
		for j := range lin[i] {
			lin[i][j] = int64((i*31 + j*17) % 23)
		}
	}
	p, err := model.NewProblem(base.Circuit, topo, 1, 1, lin)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Coarsen(p, Options{CoarsenTarget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels() < 2 {
		t.Fatalf("expected coarsening, got %d levels", h.Levels())
	}
	rng := rand.New(rand.NewSource(5))
	for k := 1; k < h.Levels(); k++ {
		for trial := 0; trial < 6; trial++ {
			ak := make(model.Assignment, h.LevelSize(k))
			for j := range ak {
				ak[j] = rng.Intn(m)
			}
			checkProjection(t, h, k, ak)
		}
	}
}

// TestVCycleQuality: on a paper-scale instance where both run, the V-cycle
// stays within 5% of the flat QBP objective under identical seeds (the
// ROADMAP acceptance bound).
func TestVCycleQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("quality comparison takes seconds; skipped with -short")
	}
	p := testInstance(t, 1200, 5200, 1800, 9)
	co := qbp.MultiStartOptions{
		Base:   qbp.Options{Iterations: 60, Seed: 11},
		Starts: 2,
	}
	flat, err := qbp.SolveMultiStart(context.Background(), p, co)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Solve(context.Background(), p, Options{Coarse: co, CoarsenTarget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(ml.Levels) < 2 {
		t.Fatalf("expected coarsening, got %d levels", len(ml.Levels))
	}
	if !flat.Feasible || !ml.Feasible {
		t.Fatalf("feasibility: flat=%v multilevel=%v, want both", flat.Feasible, ml.Feasible)
	}
	if ml.Objective > flat.Objective+flat.Objective/20 {
		t.Fatalf("V-cycle η %d is more than 5%% above flat η %d", ml.Objective, flat.Objective)
	}
	t.Logf("flat η %d, V-cycle η %d (%+.2f%%), %d levels",
		flat.Objective, ml.Objective,
		100*(float64(ml.Objective)/float64(flat.Objective)-1), len(ml.Levels))
}

// TestWorkersBitIdentical: Workers only spreads the coarse multistart's
// starts over goroutines, whose reduction is bit-identical by contract;
// coarsening and refinement are serial. The whole V-cycle must therefore be
// bit-identical across worker counts.
func TestWorkersBitIdentical(t *testing.T) {
	p := testInstance(t, 900, 3800, 1300, 6)
	run := func(workers int) *Result {
		res, err := Solve(context.Background(), p, Options{
			Coarse: qbp.MultiStartOptions{
				Base:    qbp.Options{Iterations: 20, Seed: 13},
				Starts:  4,
				Workers: workers,
			},
			CoarsenTarget: 150,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		if got.Objective != ref.Objective || got.Feasible != ref.Feasible {
			t.Fatalf("workers=%d diverged: η %d/%v vs %d/%v", w,
				got.Objective, got.Feasible, ref.Objective, ref.Feasible)
		}
		for j := range ref.Assignment {
			if got.Assignment[j] != ref.Assignment[j] {
				t.Fatalf("workers=%d: assignment diverged at component %d", w, j)
			}
		}
	}
}

// TestIsolatedComponentsCoarsen: an instance dominated by unwired
// components must still coarsen to the target (the isolated-pair fallback)
// and solve exactly — isolated merges fold nothing, so the hierarchy stays
// exact.
func TestIsolatedComponentsCoarsen(t *testing.T) {
	p := testInstance(t, 2000, 150, 70, 8)
	h, err := Coarsen(p, Options{CoarsenTarget: 300})
	if err != nil {
		t.Fatal(err)
	}
	top := h.LevelSize(h.Levels() - 1)
	if top > 600 {
		t.Fatalf("isolated-heavy instance stalled at %d components (target 300)", top)
	}
	rng := rand.New(rand.NewSource(17))
	m := p.M()
	for trial := 0; trial < 5; trial++ {
		ak := make(model.Assignment, top)
		for j := range ak {
			ak[j] = rng.Intn(m)
		}
		checkProjection(t, h, h.Levels()-1, ak)
	}
}

// TestCoarsenValidatesBudgets: Coarsen rejects structurally broken problems
// through the shared validate path.
func TestCoarsenValidatesBudgets(t *testing.T) {
	p := testInstance(t, 100, 300, 50, 10)
	broken := *p
	c := *p.Circuit
	c.Timing = append(append([]model.TimingConstraint(nil), c.Timing...),
		model.TimingConstraint{From: 1, To: 1, MaxDelay: 4})
	broken.Circuit = &c
	if _, err := Coarsen(&broken, Options{}); err == nil {
		t.Fatal("Coarsen accepted a self-loop timing budget")
	}
}
