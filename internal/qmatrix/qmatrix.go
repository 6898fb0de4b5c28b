// Package qmatrix implements the paper's §3 transformation of the
// partitioning problem into quadratic Boolean form: the packing of the
// x[i][j] indicator matrix into a length-M·N vector y, the construction of
// the cost matrix Q (linear term on the diagonal, a[j1][j2]·b[i1][i2]
// couplings elsewhere), and the two timing-constraint embeddings:
//
//   - Theorem 1 (exact): entries outside the region of feasible pairs R are
//     replaced by a constant U > 2·Σ|q|, making the unconstrained problem
//     exactly equivalent to the timing-constrained one.
//   - Theorem 2 (soft): entries outside R are replaced by any raised value
//     (the paper uses 50); if the minimizer of the modified problem is
//     timing-feasible it is optimal for the original problem.
//
// Dense matrices are only for small instances and tests; the solvers
// enumerate Q̂'s nonzeros from the sparse coupling graph instead (paper
// §4.3).
package qmatrix

import (
	"math"

	"repro/internal/model"
	"repro/internal/sparsemat"
)

// Pack maps (partition i, component j) to the flat index
// r = i + j·M, the 0-based form of the paper's r = i + (j−1)·M.
func Pack(i, j, m int) int { return i + j*m }

// Unpack inverts Pack.
func Unpack(r, m int) (i, j int) { return r % m, r / m }

// FeasiblePair reports whether ((i1,j1),(i2,j2)) belongs to the region of
// feasible pairs R: assigning j1→i1 and j2→i2 does not violate the timing
// constraint from j1 to j2, i.e. D(i1,i2) ≤ D_C(j1,j2). Pairs with j1 == j2
// are vacuously feasible here (they are excluded by C3, not by timing).
func FeasiblePair(cs *sparsemat.CSR, delay [][]int64, i1, j1, i2, j2 int) bool {
	if j1 == j2 {
		return true
	}
	k := cs.Find(j1, j2)
	if k < 0 || cs.MaxDelay[k] == model.Unconstrained {
		return true
	}
	return delay[i1][i2] <= cs.MaxDelay[k]
}

// DenseBase builds the M·N × M·N cost matrix Q of §3.1 with the scaling
// factors folded in: diagonal entries α·p[i][j], off-diagonal entries
// β·a[j1][j2]·b[i1][i2] with A interpreted symmetrically. No timing
// embedding is applied.
func DenseBase(p *model.Problem) [][]int64 {
	return dense(p, 0)
}

// DenseQhat builds the soft-embedded cost matrix Q̂ of Theorem 2: like
// DenseBase, but every entry whose index pair lies outside the region of
// feasible pairs R is *set* to penalty, exactly as in the paper's §3.3
// worked example (where the 5·2 coupling at a timing-violating slot appears
// as 50, not 60).
func DenseQhat(p *model.Problem, penalty int64) [][]int64 {
	return dense(p, penalty)
}

// DenseTheorem1 builds the exactly-embedded matrix Q' of Theorem 1 and
// returns it together with the constant U = 2·Σ|q| + 1 used for the
// infeasible entries.
func DenseTheorem1(p *model.Problem) ([][]int64, int64) {
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
	u := 2*sum + 1
	return dense(p, u), u
}

func dense(p *model.Problem, penalty int64) [][]int64 {
	m, n := p.M(), p.N()
	mn := m * n
	b := p.Topology.Cost
	d := p.Topology.Delay
	q := make([][]int64, mn)
	for r := range q {
		q[r] = make([]int64, mn)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			q[Pack(i, j, m)][Pack(i, j, m)] = p.Alpha * p.LinearAt(i, j)
		}
	}
	cs := sparsemat.Build(p.Circuit)
	for j1 := 0; j1 < n; j1++ {
		for j2 := 0; j2 < n; j2++ {
			if j1 == j2 {
				continue
			}
			w, dc := int64(0), model.Unconstrained
			if k := cs.Find(j1, j2); k >= 0 {
				w, dc = cs.Weight[k], cs.MaxDelay[k]
			}
			for i1 := 0; i1 < m; i1++ {
				for i2 := 0; i2 < m; i2++ {
					r1, r2 := Pack(i1, j1, m), Pack(i2, j2, m)
					if penalty != 0 && dc != model.Unconstrained && d[i1][i2] > dc {
						q[r1][r2] = penalty
					} else {
						q[r1][r2] = p.Beta * w * b[i1][i2]
					}
				}
			}
		}
	}
	return q
}

// Value evaluates yᵀQy for the binary vector y induced by a complete
// assignment a: y[Pack(a[j], j)] = 1.
func Value(q [][]int64, a model.Assignment, m int) int64 {
	var v int64
	for j1, i1 := range a {
		r1 := Pack(i1, j1, m)
		row := q[r1]
		for j2, i2 := range a {
			v += row[Pack(i2, j2, m)]
		}
	}
	return v
}

// Omega computes the bound vector ω of equation (2): for every flat index
// r = (i1, j1),
//
//	ω_r ≥ max over y ∈ S of Σ_s q̂[r][s]·y_s.
//
// Because every y ∈ S assigns each component to exactly one partition (C3),
// the column sum decomposes per component, so
// ω_r = q̂[r][r] + Σ_{j2≠j1} max_{i2} q̂[r][(i2,j2)] is a valid bound. It is
// computed sparsely from the coupling graph cs of p in O(M·nnz); components
// not coupled to j1 contribute only zero entries.
func Omega(p *model.Problem, cs *sparsemat.CSR, penalty int64) []int64 {
	m, n := p.M(), p.N()
	b := p.Topology.Cost
	d := p.Topology.Delay
	omega := make([]int64, m*n)
	// maxB[i1] = max_{i2} b[i1][i2]
	maxB := make([]int64, m)
	for i1 := 0; i1 < m; i1++ {
		for i2 := 0; i2 < m; i2++ {
			if b[i1][i2] > maxB[i1] {
				maxB[i1] = b[i1][i2]
			}
		}
	}
	for j1 := 0; j1 < n; j1++ {
		lo, hi := cs.Row(j1)
		for i1 := 0; i1 < m; i1++ {
			w := p.Alpha * p.LinearAt(i1, j1)
			for k := lo; k < hi; k++ {
				// max over i2 of the (i1,j1)-(i2,Col[k]) entry: either
				// the raised penalty (if some i2 violates the timing
				// bound) or the largest wire coupling.
				best := int64(0)
				if wt := cs.Weight[k]; wt > 0 {
					best = p.Beta * wt * maxB[i1]
				}
				if md := cs.MaxDelay[k]; md != model.Unconstrained {
					for i2 := 0; i2 < m; i2++ {
						if d[i1][i2] > md {
							if penalty > best {
								best = penalty
							}
							break
						}
					}
				}
				// Saturate: with a Theorem-1 penalty in play each term can
				// be ceiling-scale, and a high-degree component would wrap
				// the sum negative — a "bound" the branch-and-bound search
				// would then happily prune everything against. ω_r stays a
				// valid upper bound when pinned at MaxInt64. best ≥ 0, so
				// the headroom test itself cannot overflow.
				if w > math.MaxInt64-best {
					w = math.MaxInt64
				} else {
					w += best
				}
			}
			omega[Pack(i1, j1, m)] = w
		}
	}
	return omega
}
