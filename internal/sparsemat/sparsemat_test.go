package sparsemat

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

func exampleCircuit() *model.Circuit {
	return &model.Circuit{
		Sizes: []int64{1, 1, 1, 1},
		Wires: []model.Wire{
			{From: 0, To: 1, Weight: 5},
			{From: 1, To: 0, Weight: 3}, // duplicate pair, reversed: weights accumulate
			{From: 1, To: 2, Weight: 2},
		},
		Timing: []model.TimingConstraint{
			{From: 0, To: 1, MaxDelay: 4},
			{From: 1, To: 0, MaxDelay: 2}, // duplicate: tightest bound kept
			{From: 2, To: 3, MaxDelay: 7}, // timing-only pair
		},
	}
}

// arc returns the merged weight and budget of the pair (j1, j2), or 0 and
// model.Unconstrained when Find reports it uncoupled.
func arc(t *testing.T, c *CSR, j1, j2 int) (int64, int64) {
	t.Helper()
	k := c.Find(j1, j2)
	if k < 0 {
		return 0, model.Unconstrained
	}
	if lo, hi := c.Row(j1); k < lo || k >= hi || int(c.Col[k]) != j2 {
		t.Fatalf("Find(%d,%d) = %d, outside row %d or to the wrong partner", j1, j2, k, j1)
	}
	return c.Weight[k], c.MaxDelay[k]
}

func TestBuildMergesPairs(t *testing.T) {
	c := Build(exampleCircuit())
	if c.N != 4 {
		t.Fatalf("N = %d, want 4", c.N)
	}
	for _, tc := range []struct {
		j1, j2 int
		w, md  int64
		what   string
	}{
		{0, 1, 8, 2, "summed weight, tightest budget"},
		{1, 0, 8, 2, "the same arc seen from the other end"},
		{2, 3, 0, 7, "timing-only arc"},
		{1, 2, 2, model.Unconstrained, "wire-only arc"},
		{0, 3, 0, model.Unconstrained, "no arc"},
	} {
		w, md := arc(t, c, tc.j1, tc.j2)
		if w != tc.w || md != tc.md {
			t.Fatalf("(%d,%d) %s: weight %d budget %d, want %d and %d", tc.j1, tc.j2, tc.what, w, md, tc.w, tc.md)
		}
	}
	if k := c.Find(0, 3); k != -1 {
		t.Fatalf("Find(0,3) = %d, want -1", k)
	}
}

func TestDegreesAndNNZ(t *testing.T) {
	c := Build(exampleCircuit())
	wantDeg := []int{1, 2, 2, 1} // pairs: (0,1), (1,2), (2,3)
	for j, want := range wantDeg {
		if got := c.Degree(j); got != want {
			t.Fatalf("Degree(%d) = %d, want %d", j, got, want)
		}
	}
	if got := c.NNZ(); got != 6 {
		t.Fatalf("NNZ = %d, want 6", got)
	}
}

// TestArcsSorted checks, at the paper circuits' scale where the dense
// reference is too costly, that every row lists its partners in strictly
// ascending order and never itself. The kernels' accumulation order, and
// Find's binary search, rest on it.
func TestArcsSorted(t *testing.T) {
	for _, spec := range gen.Paper {
		in, err := gen.Generate(gen.Params{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		c := Build(in.Problem.Normalized().Circuit)
		for j := 0; j < c.N; j++ {
			lo, hi := c.Row(j)
			for k := lo; k < hi; k++ {
				if int(c.Col[k]) == j || (k > lo && c.Col[k] <= c.Col[k-1]) {
					t.Fatalf("%s: row %d not strictly ascending without itself: %v", spec.Name, j, c.Col[lo:hi])
				}
			}
		}
	}
}

// TestFromPairsMirrorsBuild feeds a circuit's couplings to FromPairs in a
// shuffled order with random endpoint orientation, as contraction does, and
// checks the result equals Build's arc for arc.
func TestFromPairsMirrorsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		circ := randomCircuit(rng, n, rng.Intn(6*n), trial%5 == 4)
		type rec struct {
			a, b  int32
			w, md int64
		}
		var recs []rec
		for _, w := range circ.Wires {
			recs = append(recs, rec{int32(w.From), int32(w.To), w.Weight, model.Unconstrained})
		}
		for _, tc := range circ.Timing {
			recs = append(recs, rec{int32(tc.From), int32(tc.To), 0, tc.MaxDelay})
		}
		rng.Shuffle(len(recs), func(x, y int) { recs[x], recs[y] = recs[y], recs[x] })
		p := NewPairs(len(recs))
		for _, r := range recs {
			if rng.Intn(2) == 0 {
				r.a, r.b = r.b, r.a
			}
			p.Add(r.a, r.b, r.w, r.md)
		}
		got, want := FromPairs(n, p), Build(circ)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) ||
			!slices.Equal(got.Weight, want.Weight) || !slices.Equal(got.MaxDelay, want.MaxDelay) {
			t.Fatalf("trial %d (N=%d, %d records): FromPairs and Build disagree", trial, n, len(recs))
		}
	}
}

// checkDense compares c against a dense N×N reference built directly from
// the circuit's wire and timing sets: every row holds exactly the coupled
// partners in strictly ascending order, the graph is symmetric, parallel
// wire weights add and parallel budgets keep the minimum.
func checkDense(t *testing.T, circ *model.Circuit, c *CSR) {
	t.Helper()
	n := circ.N()
	coupled := make([][]bool, n)
	wantW := make([][]int64, n)
	wantD := make([][]int64, n)
	for j := range wantW {
		coupled[j] = make([]bool, n)
		wantW[j] = make([]int64, n)
		wantD[j] = make([]int64, n)
		for k := range wantD[j] {
			wantD[j][k] = model.Unconstrained
		}
	}
	for _, w := range circ.Wires {
		coupled[w.From][w.To], coupled[w.To][w.From] = true, true
		wantW[w.From][w.To] += w.Weight
		wantW[w.To][w.From] += w.Weight
	}
	for _, tc := range circ.Timing {
		coupled[tc.From][tc.To], coupled[tc.To][tc.From] = true, true
		if tc.MaxDelay < wantD[tc.From][tc.To] {
			wantD[tc.From][tc.To] = tc.MaxDelay
			wantD[tc.To][tc.From] = tc.MaxDelay
		}
	}
	if c.N != n || len(c.RowPtr) != n+1 || c.RowPtr[0] != 0 || int(c.RowPtr[n]) != c.NNZ() {
		t.Fatalf("shape: N=%d len(RowPtr)=%d nnz=%d, want N=%d", c.N, len(c.RowPtr), c.NNZ(), n)
	}
	if len(c.Weight) != c.NNZ() || len(c.MaxDelay) != c.NNZ() {
		t.Fatalf("parallel arrays disagree: %d cols, %d weights, %d budgets", c.NNZ(), len(c.Weight), len(c.MaxDelay))
	}
	nnz := 0
	for j1 := 0; j1 < n; j1++ {
		lo, hi := c.Row(j1)
		for k := lo; k < hi; k++ {
			if k > lo && c.Col[k] <= c.Col[k-1] {
				t.Fatalf("row %d not strictly ascending: %v", j1, c.Col[lo:hi])
			}
		}
		for j2 := 0; j2 < n; j2++ {
			if !coupled[j1][j2] {
				if k := c.Find(j1, j2); k >= 0 {
					t.Fatalf("uncoupled pair (%d,%d) has arc %d", j1, j2, k)
				}
				continue
			}
			nnz++
			if w, md := arc(t, c, j1, j2); w != wantW[j1][j2] || md != wantD[j1][j2] {
				t.Fatalf("arc (%d,%d): weight %d budget %d, want %d and %d", j1, j2, w, md, wantW[j1][j2], wantD[j1][j2])
			}
		}
	}
	if nnz != c.NNZ() {
		t.Fatalf("NNZ = %d, want %d coupled ordered pairs", c.NNZ(), nnz)
	}
}

// randomCircuit draws up to pairs wires and timing constraints over n
// components, with duplicate and reversed pairs, timing-only pairs, and (when
// hub) one component coupled to every other.
func randomCircuit(rng *rand.Rand, n, pairs int, hub bool) *model.Circuit {
	c := &model.Circuit{Name: "sm", Sizes: make([]int64, n)}
	for j := range c.Sizes {
		c.Sizes[j] = 1
	}
	for e := 0; e < pairs; e++ {
		j1, j2 := rng.Intn(n), rng.Intn(n)
		if j1 == j2 {
			continue
		}
		if rng.Intn(3) > 0 {
			c.Wires = append(c.Wires, model.Wire{From: j1, To: j2, Weight: 1 + rng.Int63n(5)})
		}
		if rng.Intn(3) == 0 {
			c.Timing = append(c.Timing, model.TimingConstraint{From: j2, To: j1, MaxDelay: rng.Int63n(6)})
		}
	}
	if hub {
		for j := 1; j < n; j++ {
			c.Wires = append(c.Wires, model.Wire{From: j, To: 0, Weight: 1})
		}
	}
	return c
}

func TestBuildAgainstDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(12)
		hub := trial%10 == 9
		if hub {
			n = 40 + rng.Intn(40) // a hub row with more than 32 partners
		}
		c := randomCircuit(rng, n, rng.Intn(4*n), hub)
		checkDense(t, c, Build(c))
	}
}

// FuzzBuild decodes bytes into a circuit (first byte: N; then 4-byte
// records kind, j1, j2, value) and checks Build against the dense
// reference. The seeds cover duplicate and reversed pairs, timing-only
// arcs, and a hub row with more than 32 partners.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 5, 0, 1, 0, 3, 1, 0, 1, 4, 1, 1, 0, 2, 1, 2, 3, 7})
	f.Add([]byte{3, 0, 2, 0, 1, 0, 0, 2, 9, 1, 1, 2, 0, 1, 2, 1, 0})
	hub := []byte{48}
	for j := byte(1); j < 48; j++ {
		hub = append(hub, 0, 0, j, 1, 1, j, 0, j%5)
	}
	f.Add(hub)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		c := &model.Circuit{Name: "fuzz", Sizes: make([]int64, n)}
		for j := range c.Sizes {
			c.Sizes[j] = 1
		}
		for rec := data[1:]; len(rec) >= 4; rec = rec[4:] {
			j1, j2, v := int(rec[1])%n, int(rec[2])%n, int64(rec[3])
			if j1 == j2 {
				continue
			}
			if rec[0]%2 == 0 {
				c.Wires = append(c.Wires, model.Wire{From: j1, To: j2, Weight: 1 + v})
			} else {
				c.Timing = append(c.Timing, model.TimingConstraint{From: j1, To: j2, MaxDelay: v})
			}
		}
		checkDense(t, c, Build(c))
	})
}

// Build's allocations are a fixed set of flat arrays: their count must not
// grow with the component count or the number of couplings.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	small := randomCircuit(rng, 10, 20, false)
	large := randomCircuit(rng, 20000, 100000, true)
	a := testing.AllocsPerRun(5, func() { Build(small) })
	b := testing.AllocsPerRun(5, func() { Build(large) })
	if a != b {
		t.Fatalf("Build allocates %v times at N=10 and %v times at N=20000", a, b)
	}
}

func TestDensity(t *testing.T) {
	empty := Build(&model.Circuit{Name: "e", Sizes: []int64{1}})
	if empty.Density() != 0 {
		t.Fatal("single-component density must be 0")
	}
	c := &model.Circuit{Name: "pair", Sizes: []int64{1, 1},
		Wires: []model.Wire{{From: 0, To: 1, Weight: 1}}}
	if d := Build(c).Density(); d != 1 {
		t.Fatalf("fully-coupled pair density = %v, want 1", d)
	}
}
