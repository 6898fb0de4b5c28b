package qbp

// Micro-benchmarks for the flat solve kernels, measured against the
// pre-kernel reference implementations (kept here verbatim as baselines).
// `make bench` folds these into BENCH_PR2.json.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/testgen"
)

// referenceComputeEta is the branchy per-entry STEP 3 accumulation the
// effective-row kernel replaced: per arc, per target partition, a timing
// test against the delay matrix selects penalty or weighted coupling.
func referenceComputeEta(s *solver, u []int, eta [][]float64) {
	for i := 0; i < s.m; i++ {
		row := eta[i]
		for j := range row {
			row[j] = 0
		}
	}
	cs := s.csr
	for j2 := 0; j2 < s.n; j2++ {
		lo, hi := cs.Row(j2)
		for k := lo; k < hi; k++ {
			i1 := u[cs.Col[k]]
			w, md := cs.Weight[k], cs.MaxDelay[k]
			brow := s.b[i1]
			drow := s.d[i1]
			if s.relax || md == model.Unconstrained {
				if w == 0 {
					continue
				}
				for i2 := 0; i2 < s.m; i2++ {
					eta[i2][j2] += float64(w * brow[i2])
				}
			} else {
				for i2 := 0; i2 < s.m; i2++ {
					if drow[i2] > md {
						eta[i2][j2] += float64(s.penalty)
					} else {
						eta[i2][j2] += float64(w * brow[i2])
					}
				}
			}
		}
		if s.p.Linear != nil {
			for i2 := 0; i2 < s.m; i2++ {
				eta[i2][j2] += float64(s.p.LinearAt(i2, j2))
			}
		}
	}
}

func benchSolver(b *testing.B, n int) (*solver, []int) {
	return benchSolverShape(b, testgen.Config{N: n, TimingProb: 0.4})
}

// benchSolverShape is benchSolver with an explicit instance shape, for the
// density sweeps.
func benchSolverShape(b *testing.B, cfg testgen.Config) (*solver, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	p, _ := testgen.Random(rng, cfg)
	s := newTestSolver(p, DefaultPenalty, false)
	u := make([]int, s.n)
	for j := range u {
		u[j] = rng.Intn(s.m)
	}
	return s, u
}

// densitySweep spans bounded-fan-out netlists (the paper's instances) and
// a dense Bernoulli control.
var densitySweep = []struct {
	name string
	cfg  testgen.Config
}{
	{"deg4", testgen.Config{N: 400, AvgDegree: 4, TimingProb: 0.3}},
	{"deg16", testgen.Config{N: 400, AvgDegree: 16, TimingProb: 0.3}},
	{"p50", testgen.Config{N: 400, WireProb: 0.5, TimingProb: 0.3}},
}

func BenchmarkComputeEta(b *testing.B) {
	for _, n := range []int{60, 250} {
		s, u := benchSolver(b, n)
		rows := make([][]float64, s.m)
		for i := range rows {
			rows[i] = make([]float64, s.n)
		}
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				referenceComputeEta(s, u, rows)
			}
		})
		b.Run(fmt.Sprintf("kernel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				s.etaFull(s.sc.etaI, u, false)
			}
		})
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			s.sc.etaValid = false
			s.refreshEta(u, false)
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				// A typical between-iteration diff: a handful of moves.
				for x := 0; x < 4; x++ {
					u[rng.Intn(s.n)] = rng.Intn(s.m)
				}
				s.refreshEta(u, false)
			}
		})
	}
	// Full-η recompute across the density sweep: O(nnz·M). The "sparse"
	// name segment keeps these rows comparable with the committed
	// BENCH_*.json ledger.
	for _, dc := range densitySweep {
		s, u := benchSolverShape(b, dc.cfg)
		b.Run(fmt.Sprintf("%s/sparse/n=%d", dc.name, s.n), func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				s.etaFull(s.sc.etaI, u, false)
			}
		})
	}
}

func BenchmarkPenalizedValue(b *testing.B) {
	for _, n := range []int{60, 250} {
		s, u := benchSolver(b, n)
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for k := 0; k < b.N; k++ {
				sink += refPenalizedValue(s, u)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("kernel/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for k := 0; k < b.N; k++ {
				sink += s.penalizedValue(u)
			}
			_ = sink
		})
	}
}

// BenchmarkEtaIncrementalSweep shows how the incremental path scales with
// the fraction of the iterate that moved between refreshes.
func BenchmarkEtaIncrementalSweep(b *testing.B) {
	s, u := benchSolver(b, 250)
	for _, moves := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("moves=%d", moves), func(b *testing.B) {
			b.ReportAllocs()
			s.sc.etaValid = false
			s.refreshEta(u, false)
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for x := 0; x < moves; x++ {
					u[rng.Intn(s.n)] = rng.Intn(s.m)
				}
				s.refreshEta(u, false)
			}
		})
	}
	// A bounded-fan-out instance at N=2000, where the incremental update is
	// O(Σdeg(moved)·M). Steady state must stay allocation-free.
	for _, dc := range []struct {
		name string
		cfg  testgen.Config
	}{
		{"deg12", testgen.Config{N: 2000, AvgDegree: 12, TimingProb: 0.3}},
		{"deg4", testgen.Config{N: 2000, AvgDegree: 4, TimingProb: 0.3}},
	} {
		s, u := benchSolverShape(b, dc.cfg)
		b.Run(fmt.Sprintf("%s/sparse/n=%d/moves=4", dc.name, s.n), func(b *testing.B) {
			b.ReportAllocs()
			s.sc.etaValid = false
			s.refreshEta(u, false)
			rng := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				for x := 0; x < 4; x++ {
					u[rng.Intn(s.n)] = rng.Intn(s.m)
				}
				s.refreshEta(u, false)
			}
		})
	}
}

// BenchmarkPolish times one in-loop polish(w, false) — passes to
// convergence plus the violated-pair repair — from a fixed perturbed
// assignment of a bounded-fan-out instance (N = 500, M = 16).
func BenchmarkPolish(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p, golden := testgen.Random(rng, testgen.Config{
		N: 500, GridRows: 4, GridCols: 4, AvgDegree: 6, TimingProb: 0.3, CapSlack: 1.3,
	})
	s := newTestSolver(p, DefaultPenalty, false)
	start := make(model.Assignment, s.n)
	copy(start, golden)
	for x := 0; x < s.n/5; x++ {
		start[rng.Intn(s.n)] = rng.Intn(s.m)
	}
	w := make([]int, s.n)
	b.Run(fmt.Sprintf("n=%d/m=%d", s.n, s.m), func(b *testing.B) {
		b.ReportAllocs()
		for k := 0; k < b.N; k++ {
			copy(w, start)
			s.polish(w, false)
		}
	})
}
