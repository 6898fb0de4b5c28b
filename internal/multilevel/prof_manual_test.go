package multilevel

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/qbp"
	"repro/internal/textio"
)

// TestManualProfile is a manual phase-timing harness, gated on ML_PROF
// pointing at an instance file. Not part of the suite.
func TestManualProfile(t *testing.T) {
	path := os.Getenv("ML_PROF")
	if path == "" {
		t.Skip("set ML_PROF=<instance file>")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	t0 := time.Now()
	p, err := textio.ReadProblemAuto(f)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("read+build      %v\n", time.Since(t0))

	t0 = time.Now()
	h, err := Coarsen(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("coarsen         %v (%d levels)\n", time.Since(t0), h.Levels())
	for k, lv := range h.levels {
		fmt.Printf("  level %2d: n=%8d pairs=%8d\n", k, lv.g.N, lv.g.NNZ()/2)
	}

	t0 = time.Now()
	cp, err := h.Problem(h.Levels() - 1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("materialize     %v (%d wires, %d timing)\n", time.Since(t0), len(cp.Circuit.Wires), len(cp.Circuit.Timing))

	t0 = time.Now()
	seed := clusterSeed(cp)
	fmt.Printf("cluster seed    %v (nil=%v)\n", time.Since(t0), seed == nil)

	t0 = time.Now()
	last := t0
	res, err := Solve(context.Background(), p, Options{
		Coarse: qbp.MultiStartOptions{Base: qbp.Options{Seed: 3, OnProgress: func(pr qbp.Progress) {
			if time.Since(last) > 10*time.Second {
				last = time.Now()
				fmt.Printf("  coarse iter %d/%d best=%d elapsed=%v\n", pr.Iteration, pr.Iterations, pr.BestPenalized, pr.Elapsed)
			}
		}}},
		OnLevel: func(ls LevelStat) {
			fmt.Printf("  level %2d done: n=%8d moves=%6d total=%v\n", ls.Level, ls.N, ls.Moves, time.Since(t0))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("solve           %v (obj=%d feasible=%v)\n", time.Since(t0), res.Objective, res.Feasible)
}
