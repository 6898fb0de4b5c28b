package qbp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/testgen"
)

func TestMultiStartPicksBestOfSequential(t *testing.T) {
	assertNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(44))
	p, _ := testgen.Random(rng, testgen.Config{N: 16, TimingProb: 0.3})
	base := Options{Iterations: 30, Seed: 5}

	multi, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{Base: base, Starts: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the same four runs sequentially and verify the selection.
	var want *Result
	for k := 0; k < 4; k++ {
		o := base
		o.Seed = derivedSeed(base.Seed, k)
		r, err := Solve(context.Background(), p, o)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil ||
			(r.Feasible && !want.Feasible) ||
			(r.Feasible == want.Feasible && r.Feasible && r.Objective < want.Objective) ||
			(r.Feasible == want.Feasible && !r.Feasible && r.Penalized < want.Penalized) {
			want = r
		}
	}
	if multi.Objective != want.Objective || multi.Feasible != want.Feasible {
		t.Fatalf("multi-start picked objective %d (feasible %v), sequential best is %d (%v)",
			multi.Objective, multi.Feasible, want.Objective, want.Feasible)
	}
}

func TestMultiStartDeterministic(t *testing.T) {
	assertNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(45))
	p, _ := testgen.Random(rng, testgen.Config{N: 14, TimingProb: 0.3})
	o := MultiStartOptions{Base: Options{Iterations: 20, Seed: 1}, Starts: 6, Workers: 3}
	a, err := solveMultiStart(t, context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveMultiStart(t, context.Background(), p, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Penalized != b.Penalized {
		t.Fatalf("multi-start nondeterministic: %d/%d vs %d/%d", a.Objective, a.Penalized, b.Objective, b.Penalized)
	}
}

func TestMultiStartNeverWorseThanSingle(t *testing.T) {
	assertNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 5; trial++ {
		p, _ := testgen.Random(rng, testgen.Config{N: 15, TimingProb: 0.4})
		base := Options{Iterations: 25, Seed: int64(trial)}
		single, err := Solve(context.Background(), p, base)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{Base: base, Starts: 4})
		if err != nil {
			t.Fatal(err)
		}
		if single.Feasible && multi.Feasible && multi.Objective > single.Objective {
			t.Fatalf("trial %d: multi-start (%d) worse than its own first start (%d)",
				trial, multi.Objective, single.Objective)
		}
	}
}

func TestMultiStartPropagatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p, _ := testgen.Random(rng, testgen.Config{N: 8})
	p.Circuit.Sizes[0] = -1
	if _, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{Starts: 3}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

func TestMultiStartDefaults(t *testing.T) {
	assertNoGoroutineLeak(t)
	rng := rand.New(rand.NewSource(48))
	p, _ := testgen.Random(rng, testgen.Config{N: 10})
	res, err := solveMultiStart(t, context.Background(), p, MultiStartOptions{Base: Options{Iterations: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !p.Normalized().CapacityFeasible(res.Assignment) {
		t.Fatal("default multi-start produced unusable result")
	}
}

// TestDerivedSeedKeepsBaseAtStartZero pins the property that makes a
// one-start multistart bit-identical to a plain Solve.
func TestDerivedSeedKeepsBaseAtStartZero(t *testing.T) {
	for _, s := range []int64{0, 1, -7, 1 << 40} {
		if got := derivedSeed(s, 0); got != s {
			t.Fatalf("derivedSeed(%d, 0) = %d, want the base seed unchanged", s, got)
		}
	}
}

// TestDerivedSeedRegression is the regression for the additive scheme
// `seed + k·7_368_787`, under which user seed s at start k+1 replayed the
// identical stream as seed s+7_368_787 at start k.
func TestDerivedSeedRegression(t *testing.T) {
	const oldStride = 7_368_787
	for _, s := range []int64{0, 1, 42, -13, 1 << 33} {
		for k := 0; k < 64; k++ {
			if derivedSeed(s, k+1) == derivedSeed(s+oldStride, k) {
				t.Fatalf("seed %d start %d collides with seed %d start %d (old additive aliasing)",
					s, k+1, s+oldStride, k)
			}
		}
	}
}

// TestDerivedSeedNoCollisions: distinct (seed, start) pairs in realistic
// ranges must map to distinct per-start seeds.
func TestDerivedSeedNoCollisions(t *testing.T) {
	seen := make(map[int64]string, 16*1024)
	for _, s := range []int64{0, 1, 2, 3, 42, 1000003, -1, -42} {
		for k := 0; k < 2048; k++ {
			d := derivedSeed(s, k)
			if prev, dup := seen[d]; dup {
				t.Fatalf("derivedSeed(%d, %d) = %d collides with %s", s, k, d, prev)
			}
			seen[d] = fmt.Sprintf("(%d, %d)", s, k)
		}
	}
}
