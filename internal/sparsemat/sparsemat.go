// Package sparsemat holds the coupling graph every solver walks. The
// paper's §4.3 enhancement never materializes the Q̂ cost matrix: its
// nonzero couplings are enumerated on demand from the sparse wire and
// timing-pair lists, so each heuristic iteration costs O(M·nnz) instead of
// M²N². Netlist coupling matrices a[j1][j2] are overwhelmingly sparse
// (bounded fan-out), so the representation here is CSR: per-component
// neighbor lists stored as flat, contiguous arrays — no per-row slice
// headers, no pointer chasing, one cache stream per kernel pass. Rows
// enumerate partners in ascending order, which fixes the accumulation order
// of every kernel that walks them.
package sparsemat

import (
	"slices"

	"repro/internal/model"
)

// CSR is the compressed-sparse-row coupling matrix: row j's arcs occupy the
// index range [RowPtr[j], RowPtr[j+1]) of the parallel Col/Weight/MaxDelay
// arrays. Parallel wires between a pair are merged into one arc (weight
// sum) and parallel timing constraints keep the tightest budget; a
// timing-only arc has Weight 0 and a wire-only arc MaxDelay
// model.Unconstrained. Both directions of every coupled pair are stored,
// and within a row Col is strictly ascending. Build once per problem with
// Build or FromPairs; immutable afterwards and safe for concurrent readers.
type CSR struct {
	N        int
	RowPtr   []int32 // len N+1
	Col      []int32 // len nnz: partner component index
	Weight   []int64 // len nnz: aggregated wire weight (0 for timing-only arcs)
	MaxDelay []int64 // len nnz: tightest timing bound, model.Unconstrained when none
}

// Pairs is a raw coupling list for FromPairs: one record per wire or
// timing constraint, in any order. Duplicates are legal and expected — the
// streamed binary format emits unit-weight wire records, and contraction
// maps many fine pairs onto one coarse pair.
type Pairs struct {
	lo, hi         []int32 // endpoints, lo < hi
	weight, budget []int64
}

// NewPairs returns an empty list with room for capacity records.
func NewPairs(capacity int) *Pairs {
	return &Pairs{
		lo:     make([]int32, 0, capacity),
		hi:     make([]int32, 0, capacity),
		weight: make([]int64, 0, capacity),
		budget: make([]int64, 0, capacity),
	}
}

// Add appends a record coupling the distinct components a and b with wire
// weight w (0 for a timing constraint) and budget maxDelay
// (model.Unconstrained for a wire).
func (p *Pairs) Add(a, b int32, w, maxDelay int64) {
	if a > b {
		a, b = b, a
	}
	p.lo = append(p.lo, a)
	p.hi = append(p.hi, b)
	p.weight = append(p.weight, w)
	p.budget = append(p.budget, maxDelay)
}

// Build merges a circuit's wires and timing constraints into its coupling
// graph. The circuit must be valid (in-range, non-self endpoints).
func Build(c *model.Circuit) *CSR {
	p := NewPairs(len(c.Wires) + len(c.Timing))
	for _, w := range c.Wires {
		p.Add(int32(w.From), int32(w.To), w.Weight, model.Unconstrained)
	}
	for _, t := range c.Timing {
		p.Add(int32(t.From), int32(t.To), 0, t.MaxDelay)
	}
	return FromPairs(c.N(), p)
}

// FromPairs merges a pair list over components [0, n) into the symmetric
// CSR. Two stable counting-sort passes — by high endpoint, then by low —
// order the records by (low, high) with no map and no comparison sort, so
// duplicates are adjacent and merge in one walk. Scattering the merged
// pairs in that order hands every row its lower partners ascending, then
// its higher ones, so rows come out sorted without a second sort. The work
// is O(n + records) and the allocation count does not depend on either.
func FromPairs(n int, p *Pairs) *CSR {
	r := len(p.lo)
	pos := make([]int32, n+1)
	byHi := make([]int32, r)
	countingSort(byHi, nil, p.hi, pos)
	order := make([]int32, r)
	countingSort(order, byHi, p.lo, pos)

	// Count the distinct pairs and each row's partners.
	deg := pos[:n]
	clear(deg)
	pairs := 0
	for x, k := range order {
		if x > 0 && p.lo[order[x-1]] == p.lo[k] && p.hi[order[x-1]] == p.hi[k] {
			continue
		}
		deg[p.lo[k]]++
		deg[p.hi[k]]++
		pairs++
	}
	c := &CSR{
		N:        n,
		RowPtr:   make([]int32, n+1),
		Col:      make([]int32, 2*pairs),
		Weight:   make([]int64, 2*pairs),
		MaxDelay: make([]int64, 2*pairs),
	}
	for j, d := range deg {
		c.RowPtr[j+1] = c.RowPtr[j] + d
	}

	// Merge each run of equal pairs (weight sum, budget minimum) and
	// scatter it into both endpoint rows.
	fill := deg
	copy(fill, c.RowPtr[:n])
	for x := 0; x < r; {
		k := order[x]
		a, b := p.lo[k], p.hi[k]
		w, md := p.weight[k], p.budget[k]
		for x++; x < r && p.lo[order[x]] == a && p.hi[order[x]] == b; x++ {
			w += p.weight[order[x]]
			if v := p.budget[order[x]]; v < md {
				md = v
			}
		}
		pa, pb := fill[a], fill[b]
		fill[a]++
		fill[b]++
		c.Col[pa], c.Weight[pa], c.MaxDelay[pa] = b, w, md
		c.Col[pb], c.Weight[pb], c.MaxDelay[pb] = a, w, md
	}
	return c
}

// countingSort writes into dst the records of src (nil: every record in
// index order) stably ordered by key. pos is len n+1 scratch.
func countingSort(dst, src, key, pos []int32) {
	clear(pos)
	for _, v := range key {
		pos[v+1]++
	}
	for i := 1; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	if src == nil {
		for k, v := range key {
			dst[pos[v]] = int32(k)
			pos[v]++
		}
		return
	}
	for _, k := range src {
		v := key[k]
		dst[pos[v]] = k
		pos[v]++
	}
}

// NNZ returns the number of stored arcs (both directions of each coupled
// pair).
func (c *CSR) NNZ() int { return len(c.Col) }

// Degree returns the number of distinct partners of component j.
func (c *CSR) Degree(j int) int { return int(c.RowPtr[j+1] - c.RowPtr[j]) }

// Row returns the index range of component j's arcs in the parallel arrays.
func (c *CSR) Row(j int) (lo, hi int) { return int(c.RowPtr[j]), int(c.RowPtr[j+1]) }

// Find returns the index of the arc from j1 to j2 in the parallel arrays,
// or -1 when the pair is not coupled: a binary search over row j1.
func (c *CSR) Find(j1, j2 int) int {
	lo, hi := c.Row(j1)
	if x, ok := slices.BinarySearch(c.Col[lo:hi], int32(j2)); ok {
		return lo + x
	}
	return -1
}

// Density is the fraction of ordered off-diagonal pairs that carry a
// coupling: NNZ / (N·(N−1)). Zero for N < 2.
func (c *CSR) Density() float64 {
	if c.N < 2 {
		return 0
	}
	return float64(c.NNZ()) / (float64(c.N) * float64(c.N-1))
}
