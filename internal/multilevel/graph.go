// Package multilevel scales the flat QBP solver to millions of components
// with the classic V-cycle of multi-level partitioning: coarsen the circuit
// by heavy-edge matching until it fits the flat solver, solve the coarsest
// level exactly as a PP(1,1) instance with the multistart QBP heuristic,
// then uncoarsen level by level — projecting the assignment down the
// hierarchy and re-polishing each level with boundary-restricted GFM/GKL
// refinement (small levels) or a deterministic greedy boundary sweep (large
// levels).
//
// The contraction is exact, not approximate: every level is itself a valid
// PP(1,1) instance over the unchanged partition topology, built so that the
// level objective of any coarse assignment equals the original objective of
// its projection, and so that a feasible coarse assignment projects to a
// feasible fine assignment (see DESIGN.md §15 for the invariants and
// proofs). That makes the V-cycle a pure search-space restriction: quality
// can differ from the flat solve, but accounting never does.
package multilevel

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sparsemat"
)

// graph is one level of the contraction hierarchy: component sizes plus
// the level's coupling graph, merged by the same builder every solver uses
// (weight sums, budget minima, map-free counting sort), so a
// million-component level is built in O(nnz) flat memory and its visit
// order — and therefore everything solved on it — is deterministic.
type graph struct {
	*sparsemat.CSR
	sizes []int64
}

// contract builds the next-coarser graph under the cluster map cl
// (len g.N, values in [0,nc)). Inter-cluster arcs merge with weight sums
// and budget minima; intra-cluster wires vanish from the quadratic term
// (their contribution is folded into the coarse linear matrix by the
// caller, via the returned per-cluster internal weight — nil unless
// needIntra). An intra-cluster timing budget tighter than the worst
// intra-partition delay would constrain which partitions the cluster may
// occupy, which the coarse model cannot express — the matching never
// produces one, and contract rejects it defensively (relax drops the check
// along with the constraints' meaning).
func (g *graph) contract(cl []int32, nc int, maxDiagDelay int64, relax, needIntra bool) (*graph, []int64, error) {
	sizes := make([]int64, nc)
	for j := 0; j < g.N; j++ {
		sizes[cl[j]] += g.sizes[j]
	}
	var intra []int64
	if needIntra {
		intra = make([]int64, nc)
	}
	pl := sparsemat.NewPairs(g.NNZ() / 2)
	for u := 0; u < g.N; u++ {
		for k, hi := g.Row(u); k < hi; k++ {
			v := int(g.Col[k])
			if v <= u {
				continue
			}
			cu, cv := cl[u], cl[v]
			if cu == cv {
				if needIntra {
					intra[cu] += g.Weight[k]
				}
				if md := g.MaxDelay[k]; !relax && md != model.Unconstrained && md < maxDiagDelay {
					return nil, nil, fmt.Errorf("multilevel: contraction internalizes timing budget %d on pair (%d,%d), tighter than the worst intra-partition delay %d", md, u, v, maxDiagDelay)
				}
				continue
			}
			pl.Add(cu, cv, g.Weight[k], g.MaxDelay[k])
		}
	}
	return &graph{CSR: sparsemat.FromPairs(nc, pl), sizes: sizes}, intra, nil
}

// problem materializes a level as a flat PP(1,1) instance over the original
// (unchanged) partition topology. lin is the level's folded linear matrix
// (nil ⇒ zero).
func (g *graph) problem(name string, topo *model.Topology, lin [][]int64) (*model.Problem, error) {
	var wires []model.Wire
	var timing []model.TimingConstraint
	for u := 0; u < g.N; u++ {
		for k, hi := g.Row(u); k < hi; k++ {
			v := int(g.Col[k])
			if v <= u {
				continue
			}
			if w := g.Weight[k]; w > 0 {
				wires = append(wires, model.Wire{From: u, To: v, Weight: w})
			}
			if md := g.MaxDelay[k]; md != model.Unconstrained {
				timing = append(timing, model.TimingConstraint{From: u, To: v, MaxDelay: md})
			}
		}
	}
	c := &model.Circuit{Name: name, Sizes: g.sizes, Wires: wires, Timing: timing}
	return model.NewProblem(c, topo, 1, 1, lin)
}

// foldLinear builds the coarse linear matrix: column sums of the fine
// matrix under cl, plus the internalized wire weight priced at the
// intra-partition coupling 2·b[i][i]. This is what keeps the level
// objective equal to the projected fine objective even when B's diagonal is
// nonzero; when the fine matrix is nil and the diagonal coupling is zero it
// returns nil, and the coarse level stays linear-free.
func foldLinear(linF [][]int64, cl []int32, nc int, intra []int64, cost [][]int64) [][]int64 {
	m := len(cost)
	needDiag := false
	if intra != nil {
		for i := 0; i < m; i++ {
			if cost[i][i] != 0 {
				needDiag = true
				break
			}
		}
	}
	if linF == nil && !needDiag {
		return nil
	}
	lin := make([][]int64, m)
	for i := range lin {
		lin[i] = make([]int64, nc)
	}
	if linF != nil {
		for i := 0; i < m; i++ {
			row, rowF := lin[i], linF[i]
			for j, c := range cl {
				row[c] += rowF[j]
			}
		}
	}
	if needDiag {
		for i := 0; i < m; i++ {
			bp := 2 * cost[i][i]
			if bp == 0 {
				continue
			}
			row := lin[i]
			for c, w := range intra {
				row[c] += w * bp
			}
		}
	}
	return lin
}

// timingOnlyProblem materializes just the constraint view of a level —
// sizes, capacities, delays and the tightened budgets, no wires. Exactly
// what the capacity-preserving min-conflicts repair consumes; at a
// million components this skips the wire list a full materialization would
// allocate.
func (g *graph) timingOnlyProblem(topo *model.Topology) (*model.Problem, error) {
	var timing []model.TimingConstraint
	for u := 0; u < g.N; u++ {
		for k, hi := g.Row(u); k < hi; k++ {
			v := int(g.Col[k])
			if v <= u {
				continue
			}
			if md := g.MaxDelay[k]; md != model.Unconstrained {
				timing = append(timing, model.TimingConstraint{From: u, To: v, MaxDelay: md})
			}
		}
	}
	c := &model.Circuit{Name: "timing-only", Sizes: g.sizes, Timing: timing}
	return model.NewProblem(c, topo, 1, 1, nil)
}

// timingFeasibleOn reports whether a satisfies every finite budget of the
// level (both delay directions), scanning the CSR once.
func (g *graph) timingFeasibleOn(a []int, delay [][]int64) bool {
	for u := 0; u < g.N; u++ {
		for k, hi := g.Row(u); k < hi; k++ {
			v := int(g.Col[k])
			if v <= u {
				continue
			}
			md := g.MaxDelay[k]
			if md == model.Unconstrained {
				continue
			}
			iu, iv := a[u], a[v]
			if delay[iu][iv] > md || delay[iv][iu] > md {
				return false
			}
		}
	}
	return true
}
