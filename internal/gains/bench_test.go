package gains

// Micro-benchmarks for the two table paths the interchange baselines and
// qbp's final polish spend their time in: a single move (the GFM step) and
// one best-swap selection scan (the GKL step).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/sparsemat"
	"repro/internal/testgen"
)

// benchTable builds a table over an N=2000, average-degree-8 instance on a
// 4×4 grid (M=16), starting from the generator's feasible assignment.
func benchTable(b *testing.B) (*Table, *model.Problem) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	p, golden := testgen.Random(rng, testgen.Config{N: 2000, AvgDegree: 8, GridRows: 4, GridCols: 4})
	tb, err := New(p, sparsemat.Build(p.Circuit), golden)
	if err != nil {
		b.Fatal(err)
	}
	return tb, p
}

// BenchmarkGainsApply times one GFM-style move: pick a component, move it
// to its best other partition, as the GFM pass does.
func BenchmarkGainsApply(b *testing.B) {
	tb, p := benchTable(b)
	n, m := p.N(), p.M()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		j := (k * 7919) % n
		row := tb.DeltaRow(j)
		cur := tb.Partition(j)
		best, bestD := (cur+1)%m, int64(math.MaxInt64)
		for to, d := range row {
			if to != cur && d < bestD {
				best, bestD = to, d
			}
		}
		tb.Apply(j, best)
	}
}

// BenchmarkSwapScan times one GKL selection scan: the best swap delta over
// every pair of components in different partitions.
func BenchmarkSwapScan(b *testing.B) {
	tb, p := benchTable(b)
	n := p.N()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		best := int64(math.MaxInt64)
		for j1 := 0; j1 < n; j1++ {
			pw := tb.Members(tb.Partition(j1))
			for j2 := pw.NextClear(j1 + 1); j2 < n; j2 = pw.NextClear(j2 + 1) {
				if d := tb.SwapDelta(j1, j2); d < best {
					best = d
				}
			}
		}
		if best == math.MaxInt64 {
			b.Fatal("no swap candidates")
		}
	}
}
