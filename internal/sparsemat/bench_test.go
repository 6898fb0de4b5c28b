package sparsemat

// BenchmarkCSRBuild times one coupling-graph build — the step every solve,
// multistart and V-cycle level pays before its first kernel pass — on the
// seven paper circuits and on the N=10⁴ instance of the vcycle-10k
// workload. `make bench` folds it into the BENCH_*.json ledger.

import (
	"testing"

	"repro/internal/gen"
)

// csrSink keeps the benchmarked build observable to the compiler.
var csrSink *CSR

func BenchmarkCSRBuild(b *testing.B) {
	specs := append([]gen.Spec(nil), gen.Paper...)
	specs = append(specs, gen.Spec{Name: "n=10000", Components: 10_000, Wires: 40_000, TimingConstraints: 1_000, Seed: 31})
	for _, spec := range specs {
		in, err := gen.Generate(gen.Params{Spec: spec})
		if err != nil {
			b.Fatal(err)
		}
		c := in.Problem.Normalized().Circuit
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				csrSink = Build(c)
			}
		})
	}
}
