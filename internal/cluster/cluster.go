// Package cluster implements ratio-cut clustering — the "first type" of
// partitioning the paper's introduction contrasts with its own
// fixed-topology problem: with no partition structure given, minimize the
// Ratio Cut R(A,B) = cut(A,B) / (|A|·|B|) to discover the circuit's
// "natural clusters" (Wei & Cheng, refs [9,10] of the paper).
//
// Here it serves two roles: a standalone structure-discovery tool, and a
// cluster-aware seed generator for the fixed-topology solvers — natural
// clusters mapped onto partitions make a strong starting point for the QBP
// iteration.
package cluster

import (
	"errors"
	"sort"

	"repro/internal/model"
	"repro/internal/sparsemat"
)

// Options tunes Split and Clusters.
type Options struct {
	// MaxPasses bounds the move passes per bipartition; ≤ 0 means 12.
	MaxPasses int
	// MinPart prevents degenerate cuts: each side of a split keeps at
	// least this many components; ≤ 0 means 2.
	MinPart int
}

// Split bipartitions the components {0..N-1} of c by iterative ratio-cut
// improvement: starting from a breadth-first half/half seed, single
// components move across the cut while the ratio R = cut/(|A|·|B|)
// improves. Returns the indicator side[j] ∈ {0, 1}.
func Split(c *model.Circuit, opts Options) ([]int, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return splitSubset(sparsemat.Build(c), allOf(c.N()), opts), nil
}

func allOf(n int) []int {
	s := make([]int, n)
	for j := range s {
		s[j] = j
	}
	return s
}

// splitSubset bipartitions the given subset, returning side indicators
// aligned with the full component index space (entries outside subset are
// -1).
func splitSubset(cs *sparsemat.CSR, subset []int, opts Options) []int {
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 12
	}
	minPart := opts.MinPart
	if minPart <= 0 {
		minPart = 2
	}
	n := cs.N
	side := make([]int, n)
	for j := range side {
		side[j] = -1
	}
	if len(subset) < 2 {
		for _, j := range subset {
			side[j] = 0
		}
		return side
	}
	inSubset := make([]bool, n)
	for _, j := range subset {
		inSubset[j] = true
	}

	// BFS seed from the highest-degree member: the first half explored
	// becomes side 0 — a connectivity-aware start.
	start := subset[0]
	for _, j := range subset {
		if cs.Degree(j) > cs.Degree(start) {
			start = j
		}
	}
	order := make([]int, 0, len(subset))
	seen := make([]bool, n)
	queue := []int{start}
	seen[start] = true
	//lint:ignore cancel-poll BFS visits each component exactly once (seen guard); bounded by the subset size
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		order = append(order, j)
		lo, hi := cs.Row(j)
		for k := lo; k < hi; k++ {
			if o := int(cs.Col[k]); inSubset[o] && !seen[o] && cs.Weight[k] > 0 {
				seen[o] = true
				queue = append(queue, o)
			}
		}
	}
	for _, j := range subset { // disconnected leftovers
		if !seen[j] {
			order = append(order, j)
		}
	}
	half := len(subset) / 2
	for k, j := range order {
		if k < half {
			side[j] = 0
		} else {
			side[j] = 1
		}
	}

	// Cut weight and side populations.
	var cut int64
	count := [2]int{}
	for _, j := range subset {
		count[side[j]]++
		lo, hi := cs.Row(j)
		for k := lo; k < hi; k++ {
			if o := int(cs.Col[k]); j < o && inSubset[o] && side[j] != side[o] {
				cut += cs.Weight[k]
			}
		}
	}
	// ratioBetter reports whether cut c1 with populations (a1,b1) is a
	// strictly better ratio than c2 with (a2,b2): c1/(a1·b1) < c2/(a2·b2),
	// compared in integers.
	ratioBetter := func(c1 int64, a1, b1 int, c2 int64, a2, b2 int) bool {
		return c1*int64(a2)*int64(b2) < c2*int64(a1)*int64(b1)
	}

	//lint:ignore cancel-poll bounded by maxPasses over a fixed subset; a seeding heuristic, not a solve loop
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, j := range subset {
			from := side[j]
			to := 1 - from
			if count[from] <= minPart {
				continue
			}
			// Cut delta of moving j: edges to the other side leave the
			// cut, edges to its own side enter it.
			var toOther, toOwn int64
			lo, hi := cs.Row(j)
			for k := lo; k < hi; k++ {
				o, w := cs.Col[k], cs.Weight[k]
				if !inSubset[o] || w == 0 {
					continue
				}
				if side[o] == from {
					toOwn += w
				} else {
					toOther += w
				}
			}
			newCut := cut - toOther + toOwn
			if ratioBetter(newCut, count[from]-1, count[to]+1, cut, count[from], count[to]) {
				side[j] = to
				count[from]--
				count[to]++
				cut = newCut
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return side
}

// Clusters recursively ratio-cut-splits the circuit into k clusters,
// always splitting the largest remaining cluster. Each returned slice holds
// component indices; every component appears in exactly one cluster.
func Clusters(c *model.Circuit, k int, opts Options) ([][]int, error) {
	if k < 1 {
		return nil, errors.New("cluster: need at least one cluster")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cs := sparsemat.Build(c)
	clusters := [][]int{allOf(c.N())}
	for len(clusters) < k {
		// Split the largest splittable cluster.
		sort.Slice(clusters, func(a, b int) bool { return len(clusters[a]) > len(clusters[b]) })
		target := clusters[0]
		if len(target) < 2 {
			break // nothing left to split
		}
		side := splitSubset(cs, target, opts)
		var s0, s1 []int
		for _, j := range target {
			if side[j] == 0 {
				s0 = append(s0, j)
			} else {
				s1 = append(s1, j)
			}
		}
		if len(s0) == 0 || len(s1) == 0 {
			break // degenerate split; stop rather than loop
		}
		clusters = append(clusters[1:], s0, s1)
	}
	sort.Slice(clusters, func(a, b int) bool { return len(clusters[a]) > len(clusters[b]) })
	return clusters, nil
}

// SeedAssignment maps natural clusters onto the partitions of p: clusters
// in decreasing size are placed whole onto the partition with the most
// remaining capacity; members that no longer fit spill to the roomiest
// partitions individually. The result satisfies C1 whenever a first-fit
// placement exists; timing constraints are not considered (refine with the
// solvers).
func SeedAssignment(p *model.Problem, clusters [][]int) (model.Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := p.M()
	remaining := append([]int64(nil), p.Topology.Capacities...)
	a := model.NewAssignment(p.N())
	roomiest := func() int {
		best := 0
		for i := 1; i < m; i++ {
			if remaining[i] > remaining[best] {
				best = i
			}
		}
		return best
	}
	place := func(j, i int) error {
		if remaining[i] < p.Circuit.Sizes[j] {
			i = roomiest()
		}
		if remaining[i] < p.Circuit.Sizes[j] {
			return errors.New("cluster: component does not fit any partition")
		}
		a[j] = i
		remaining[i] -= p.Circuit.Sizes[j]
		return nil
	}
	for _, cl := range clusters {
		target := roomiest()
		// Largest members first so spills happen on small components.
		members := append([]int(nil), cl...)
		sort.Slice(members, func(x, y int) bool {
			if p.Circuit.Sizes[members[x]] != p.Circuit.Sizes[members[y]] {
				return p.Circuit.Sizes[members[x]] > p.Circuit.Sizes[members[y]]
			}
			return members[x] < members[y]
		})
		for _, j := range members {
			if err := place(j, target); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}
