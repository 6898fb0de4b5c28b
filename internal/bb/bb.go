// Package bb is an exact branch-and-bound solver for the timing- and
// capacity-constrained partitioning problem. It searches assignments
// depth-first in decreasing component-size order, pruning on capacity,
// timing feasibility against already-placed partners, and a
// Gilmore–Lawler-style lower bound (for every unplaced component, the
// cheapest placement against the placed prefix plus an optimistic bound on
// unplaced-pair couplings).
//
// It exists as a reference: exhaustive enumeration (internal/bruteforce)
// dies beyond N ≈ 10, while this reaches N ≈ 25–30 on sparse instances —
// enough to certify heuristic quality on mid-size circuits in tests and in
// EXPERIMENTS.md. It is not part of the paper (which is heuristic-only).
package bb

import (
	"context"
	"errors"
	"sort"

	"repro/internal/interrupt"
	"repro/internal/model"
	"repro/internal/sparsemat"
)

// Result is the outcome of an exact search.
type Result struct {
	Assignment model.Assignment
	Value      int64
	Found      bool  // false when no feasible assignment exists
	Nodes      int64 // search-tree nodes expanded
	// Stopped reports the search was cut short by ctx cancellation; the
	// result is then the best incumbent found (a feasible upper bound),
	// not a proven optimum.
	Stopped bool
}

// Options tunes Solve.
type Options struct {
	// MaxNodes aborts the search after this many expanded nodes
	// (≤ 0 means 50 million). An aborted search returns an error.
	MaxNodes int64
	// Incumbent, when non-nil, seeds the upper bound with a known
	// feasible solution (dramatically improves pruning).
	Incumbent model.Assignment
}

type solver struct {
	p        *model.Problem
	cs       *sparsemat.CSR
	m, n     int
	b, d     [][]int64
	order    []int // component visit order (decreasing size)
	rank     []int // rank[j] = position of j in order
	u        []int
	loads    []int64
	bestVal  int64
	bestU    []int
	found    bool
	nodes    int64
	maxNodes int64
	ck       interrupt.Checker
	// minTail[k] = optimistic bound on couplings strictly among order[k:]
	// (pairs with both endpoints unplaced), valued at the global minimum
	// B entry. linTail[k] = suffix sum of per-component linear minima.
	// The three bound pieces partition the remaining cost exactly:
	// acc (placed–placed), unplacedBound (placed–unplaced + linear),
	// minTail (unplaced–unplaced).
	minTail []int64
	linTail []int64
}

// Solve finds the exact optimum of PP(α,β) under C1, C2, C3. A ctx already
// cancelled at entry returns ctx.Err(); a ctx cancelled mid-search aborts
// the remaining tree at the next amortized check and returns the incumbent
// found so far with Result.Stopped set (Found stays false when no feasible
// assignment had been reached yet). Exhausting MaxNodes remains an error —
// a budget overrun is a sizing mistake, not a requested stop.
func Solve(ctx context.Context, p *model.Problem, opts Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	norm := p.Normalized()
	s := &solver{
		p:        norm,
		cs:       sparsemat.Build(norm.Circuit),
		m:        norm.M(),
		n:        norm.N(),
		b:        norm.Topology.Cost,
		d:        norm.Topology.Delay,
		maxNodes: opts.MaxNodes,
	}
	if s.maxNodes <= 0 {
		s.maxNodes = 50_000_000
	}
	// Heavy-tailed search trees are exactly what cancellation exists for;
	// one poll per 4096 expanded nodes keeps detection latency far below
	// any realistic deadline at negligible per-node cost.
	s.ck = interrupt.New(ctx, 4096)

	// Visit order: decreasing size (capacity pruning bites early), ties by
	// decreasing coupling degree (cost pruning bites early).
	s.order = make([]int, s.n)
	for j := range s.order {
		s.order[j] = j
	}
	sort.Slice(s.order, func(x, y int) bool {
		a, b := s.order[x], s.order[y]
		if norm.Circuit.Sizes[a] != norm.Circuit.Sizes[b] {
			return norm.Circuit.Sizes[a] > norm.Circuit.Sizes[b]
		}
		if s.cs.Degree(a) != s.cs.Degree(b) {
			return s.cs.Degree(a) > s.cs.Degree(b)
		}
		return a < b
	})
	s.rank = make([]int, s.n)
	for k, j := range s.order {
		s.rank[j] = k
	}
	s.precomputeTail()

	s.u = make([]int, s.n)
	for j := range s.u {
		s.u[j] = model.Unassigned
	}
	s.loads = make([]int64, s.m)
	if opts.Incumbent != nil && norm.Feasible(opts.Incumbent) {
		s.found = true
		s.bestVal = norm.Objective(opts.Incumbent)
		s.bestU = append([]int(nil), opts.Incumbent...)
	}

	if aborted := s.dfs(0, 0); aborted && !s.ck.Stopped() {
		return Result{}, errors.New("bb: node budget exhausted before proving optimality")
	}
	res := Result{Found: s.found, Nodes: s.nodes, Stopped: s.ck.Stopped()}
	if s.found {
		res.Assignment = append(model.Assignment(nil), s.bestU...)
		res.Value = s.bestVal
	}
	return res, nil
}

// precomputeTail builds the suffix lower bound: for components at rank ≥ k,
// the sum of (a) each component's minimum linear cost and (b) for every
// coupled pair fully inside the suffix, weight × the smallest nonzero-able
// B entry (0 if any off-diagonal B entry is 0 or the pair can share a
// partition — we use the global minimum of B including the diagonal, which
// is almost always 0 and keeps the bound valid).
func (s *solver) precomputeTail() {
	minB := s.b[0][0]
	for _, row := range s.b {
		for _, v := range row {
			if v < minB {
				minB = v
			}
		}
	}
	linMin := make([]int64, s.n)
	if s.p.Linear != nil {
		for j := 0; j < s.n; j++ {
			best := s.p.LinearAt(0, j)
			for i := 1; i < s.m; i++ {
				if v := s.p.LinearAt(i, j); v < best {
					best = v
				}
			}
			linMin[j] = best
		}
	}
	s.minTail = make([]int64, s.n+1)
	s.linTail = make([]int64, s.n+1)
	for k := s.n - 1; k >= 0; k-- {
		j := s.order[k]
		s.linTail[k] = s.linTail[k+1] + linMin[j]
		t := s.minTail[k+1]
		// Couplings from j to later-ranked partners (counted once here,
		// doubled because the objective counts both directions).
		lo, hi := s.cs.Row(j)
		for x := lo; x < hi; x++ {
			if w := s.cs.Weight[x]; s.rank[s.cs.Col[x]] > k && w > 0 {
				t += 2 * w * minB
			}
		}
		s.minTail[k] = t
	}
}

// placedCost is the exact objective contribution of placing j on i against
// the already-placed components: linear term plus both-direction couplings.
func (s *solver) placedCost(j, i int) int64 {
	c := s.p.LinearAt(i, j)
	lo, hi := s.cs.Row(j)
	for k := lo; k < hi; k++ {
		o, w := s.u[s.cs.Col[k]], s.cs.Weight[k]
		if o == model.Unassigned || w == 0 {
			continue
		}
		c += w * (s.b[i][o] + s.b[o][i])
	}
	return c
}

// timingOK checks j-on-i against placed partners only.
func (s *solver) timingOK(j, i int) bool {
	lo, hi := s.cs.Row(j)
	for k := lo; k < hi; k++ {
		md := s.cs.MaxDelay[k]
		if md == model.Unconstrained {
			continue
		}
		o := s.u[s.cs.Col[k]]
		if o == model.Unassigned {
			continue
		}
		if s.d[i][o] > md || s.d[o][i] > md {
			return false
		}
	}
	return true
}

// unplacedBound sums, over every unplaced component, its cheapest feasible
// single placement against the current prefix — linear term plus
// placed-to-unplaced couplings (a valid relaxation: couplings among the
// unplaced are excluded here and bounded separately by minTail).
func (s *solver) unplacedBound(fromRank int) (int64, bool) {
	var total int64
	for k := fromRank; k < s.n; k++ {
		j := s.order[k]
		best := int64(-1)
		for i := 0; i < s.m; i++ {
			if s.loads[i]+s.p.Circuit.Sizes[j] > s.p.Topology.Capacities[i] {
				continue
			}
			if !s.timingOK(j, i) {
				continue
			}
			if c := s.placedCost(j, i); best < 0 || c < best {
				best = c
			}
		}
		if best < 0 {
			return 0, false // some component has no feasible slot at all
		}
		total += best
	}
	return total, true
}

// dfs returns true when the search was aborted (node budget exhausted or
// ctx cancelled — the caller distinguishes the two via s.ck.Stopped()).
func (s *solver) dfs(rank int, acc int64) bool {
	s.nodes++
	if s.nodes > s.maxNodes {
		return true
	}
	if s.ck.Stop() {
		return true
	}
	if rank == s.n {
		if !s.found || acc < s.bestVal {
			s.found = true
			s.bestVal = acc
			s.bestU = append(s.bestU[:0], s.u...)
		}
		return false
	}
	// Prune with the relaxed completion bound every other level (it costs
	// O(remaining·M·deg)); the cheap suffix bound applies always. The
	// pieces are disjoint by construction, so their sum is a lower bound.
	if s.found {
		if acc+s.minTail[rank]+s.linTail[rank] >= s.bestVal {
			return false
		}
		if rank%2 == 0 {
			lb, feasible := s.unplacedBound(rank)
			if !feasible {
				return false
			}
			if acc+lb+s.minTail[rank] >= s.bestVal {
				return false
			}
		}
	}
	j := s.order[rank]
	sz := s.p.Circuit.Sizes[j]
	// Try partitions in increasing immediate-cost order.
	type cand struct {
		i int
		c int64
	}
	cands := make([]cand, 0, s.m)
	for i := 0; i < s.m; i++ {
		if s.loads[i]+sz > s.p.Topology.Capacities[i] {
			continue
		}
		if !s.timingOK(j, i) {
			continue
		}
		cands = append(cands, cand{i, s.placedCost(j, i)})
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].c != cands[y].c {
			return cands[x].c < cands[y].c
		}
		return cands[x].i < cands[y].i
	})
	for _, c := range cands {
		s.u[j] = c.i
		s.loads[c.i] += sz
		if s.dfs(rank+1, acc+c.c) {
			return true
		}
		s.loads[c.i] -= sz
		s.u[j] = model.Unassigned
	}
	return false
}
