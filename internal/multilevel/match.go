package multilevel

import "repro/internal/model"

// heavyEdgeMatch computes a deterministic heavy-edge matching on g: visiting
// components in ascending index order, each unmatched component pairs with
// its heaviest-wire unmatched neighbor (ties broken toward the smallest
// index — the CSR stores partners ascending, so the first maximum wins),
// subject to two admissibility guards:
//
//   - size: the merged cluster must not exceed sizeLimit, so coarse
//     components stay placeable (sizeLimit never exceeds the largest
//     partition capacity);
//   - timing: a pair carrying a finite budget tighter than maxDiagDelay
//     (the worst intra-partition delay) must not be internalized, because
//     the coarse model can no longer express that constraint (relax mode
//     drops the guard along with the constraints' meaning).
//
// Unmatched components become singleton clusters. Cluster ids are assigned
// in ascending order of the smallest member index, so the map is fully
// determined by the graph. Returns the cluster map and the cluster count.
func heavyEdgeMatch(g *graph, sizeLimit, maxDiagDelay int64, relax bool) ([]int32, int) {
	const unmatched = int32(-1)
	mate := make([]int32, g.N)
	for j := range mate {
		mate[j] = unmatched
	}
	for u := 0; u < g.N; u++ {
		if mate[u] != unmatched {
			continue
		}
		best := unmatched
		var bestW int64 = -1
		for k, hi := g.Row(u); k < hi; k++ {
			v := g.Col[k]
			if mate[v] != unmatched || int(v) == u {
				continue
			}
			if g.sizes[u]+g.sizes[v] > sizeLimit {
				continue
			}
			if md := g.MaxDelay[k]; !relax && md != model.Unconstrained && md < maxDiagDelay {
				continue
			}
			if w := g.Weight[k]; w > bestW {
				bestW = w
				best = v
			}
		}
		if best != unmatched {
			mate[u] = best
			mate[best] = int32(u)
		}
	}
	// Fallback pass: pair the leftover unmatched components with each other
	// in ascending index order, still under the size and timing guards. Two
	// populations land here — fully isolated components (no arcs at all)
	// and leaves stranded because every neighbor matched already (a
	// hub-dominated netlist leaves most of the graph in this state, and
	// heavy-edge matching alone then shrinks a level by a few percent
	// instead of half). The merge stays exact for any pairing: contract
	// folds an internalized wire into the coarse linear matrix and the
	// guard below keeps un-internalizable budgets out, exactly as in the
	// main pass.
	prev := unmatched
	for j := 0; j < g.N; j++ {
		if mate[j] != unmatched {
			continue
		}
		if prev == unmatched {
			prev = int32(j)
			continue
		}
		if g.sizes[prev]+g.sizes[j] <= sizeLimit && pairAdmissible(g, int(prev), j, maxDiagDelay, relax) {
			mate[prev] = int32(j)
			mate[j] = prev
			prev = unmatched
		} else {
			prev = int32(j) // inadmissible pairing; try the next partner
		}
	}

	cl := make([]int32, g.N)
	nc := 0
	for j := 0; j < g.N; j++ {
		if m := mate[j]; m != unmatched && int(m) < j {
			cl[j] = cl[m] // second member of a pair reuses the head's id
			continue
		}
		cl[j] = int32(nc)
		nc++
	}
	return cl, nc
}

// pairAdmissible reports whether merging unmatched components u and v would
// internalize a timing budget tighter than maxDiagDelay. Only the (at most
// one, post-merge) arc between them matters.
func pairAdmissible(g *graph, u, v int, maxDiagDelay int64, relax bool) bool {
	if relax {
		return true
	}
	k := g.Find(u, v)
	if k < 0 {
		return true
	}
	md := g.MaxDelay[k]
	return md == model.Unconstrained || md >= maxDiagDelay
}

// maxDiagDelay returns max_i d[i][i] — the worst routing delay a pair of
// components can see when co-located. Any internalized timing budget at
// least this large is trivially satisfied by every assignment.
func maxDiagDelay(delay [][]int64) int64 {
	var mx int64
	for i := range delay {
		if d := delay[i][i]; d > mx {
			mx = d
		}
	}
	return mx
}
