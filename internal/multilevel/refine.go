package multilevel

import (
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/interrupt"
	"repro/internal/model"
)

// sweepRefine polishes an assignment on a level too large for the GFM/GKL
// refiners: deterministic greedy descent passes restricted to the
// boundary-dirty neighborhood. Each pass visits the dirty components in
// ascending index order; a component moves to its best strictly-improving
// admissible partition (capacity always, timing unless relax), and a move
// re-dirties the mover and its neighbors for the next pass. Every applied
// move strictly decreases the level objective — the sweep terminates, keeps
// a feasible assignment feasible, and never increases the violation count
// of an infeasible one (a moved component lands satisfying all of its own
// budgets). Mutates a and loads in place; returns the number of moves.
//
// Cancellation is checked at pass boundaries and amortized inside the
// sweep; stopping mid-pass is safe because every prefix of applied moves is
// already an improvement.
func sweepRefine(ck *interrupt.Checker, g *graph, lin [][]int64, topo *model.Topology, a []int, loads []int64, maxPasses int, relax bool) int {
	m := len(topo.Capacities)
	b := topo.Cost
	d := topo.Delay
	bp := func(x, y int) int64 { return b[x][y] + b[y][x] }

	cur := bitset.New(g.N)
	next := bitset.New(g.N)
	// Seed with the boundary of the incoming (projected) assignment: any
	// component with a wire crossing partitions. Interior components can
	// only gain from linear terms or same-partition diagonal couplings;
	// those are reachable once a neighbor's move dirties them.
	for u := 0; u < g.N; u++ {
		for k, hi := g.Row(u); k < hi; k++ {
			if g.Weight[k] != 0 && a[g.Col[k]] != a[u] {
				cur.Set(u)
				break
			}
		}
	}

	row := make([]int64, m)
	moves := 0
	for pass := 0; pass < maxPasses; pass++ {
		if ck.Now() || !cur.Any() {
			break
		}
		next.Reset()
		passMoves := 0
		cw := cur.Words()
		for wi, wv := range cw {
			for rem := wv; rem != 0; rem &= rem - 1 {
				j := wi<<6 + bits.TrailingZeros64(rem)
				if ck.Stop() {
					return moves
				}
				f := a[j]
				for t := 0; t < m; t++ {
					if lin != nil {
						row[t] = lin[t][j] - lin[f][j]
					} else {
						row[t] = 0
					}
				}
				for k, hi := g.Row(j); k < hi; k++ {
					w := g.Weight[k]
					if w == 0 {
						continue
					}
					av := a[g.Col[k]]
					base := w * bp(f, av)
					for t := 0; t < m; t++ {
						row[t] += w*bp(t, av) - base
					}
				}
				best, bestDelta := -1, int64(0)
				for t := 0; t < m; t++ {
					if t == f || row[t] >= bestDelta {
						continue // strict improvement only, ties to smallest t
					}
					if loads[t]+g.sizes[j] > topo.Capacities[t] {
						continue
					}
					if !relax && !moveTimingOK(g, a, d, j, t) {
						continue
					}
					best, bestDelta = t, row[t]
				}
				if best < 0 {
					continue
				}
				loads[f] -= g.sizes[j]
				loads[best] += g.sizes[j]
				a[j] = best
				moves++
				passMoves++
				next.Set(j)
				for k, hi := g.Row(j); k < hi; k++ {
					if g.Weight[k] != 0 {
						next.Set(int(g.Col[k]))
					}
				}
			}
		}
		if passMoves == 0 {
			break
		}
		cur, next = next, cur
	}
	return moves
}

// repairSweep is the deterministic per-level counterpart of the solver's
// min-conflicts tail-cleaner: projection is exact, so any timing violations
// an assignment carries were already present at the coarser level — but the
// finer level has more freedom to fix them. Passes visit the violated
// components in ascending index order and move each to the
// capacity-admissible partition minimizing (its violation count, its
// objective delta, the partition index) lexicographically, applying the
// move only when the violation count strictly drops. Every applied move
// strictly decreases the level's total violated-pair count, so the sweep
// terminates. Mutates a and loads; returns the remaining violated-pair
// count.
func repairSweep(ck *interrupt.Checker, g *graph, lin [][]int64, topo *model.Topology, a []int, loads []int64) int {
	m := len(topo.Capacities)
	b := topo.Cost
	d := topo.Delay
	bp := func(x, y int) int64 { return b[x][y] + b[y][x] }

	violAt := func(j, at int) int {
		v := 0
		for k, hi := g.Row(j); k < hi; k++ {
			md := g.MaxDelay[k]
			if md == model.Unconstrained {
				continue
			}
			o := a[g.Col[k]]
			if d[at][o] > md || d[o][at] > md {
				v++
			}
		}
		return v
	}
	total := func() int {
		t := 0
		for u := 0; u < g.N; u++ {
			for k, hi := g.Row(u); k < hi; k++ {
				v := int(g.Col[k])
				md := g.MaxDelay[k]
				if v <= u || md == model.Unconstrained {
					continue
				}
				iu, iv := a[u], a[v]
				if d[iu][iv] > md || d[iv][iu] > md {
					t++
				}
			}
		}
		return t
	}

	row := make([]int64, m)
	remaining := total()
	for remaining > 0 {
		if ck.Now() {
			break
		}
		moved := false
		for j := 0; j < g.N; j++ {
			if ck.Stop() {
				return total()
			}
			f := a[j]
			vf := violAt(j, f)
			if vf == 0 {
				continue
			}
			for t := 0; t < m; t++ {
				if lin != nil {
					row[t] = lin[t][j] - lin[f][j]
				} else {
					row[t] = 0
				}
			}
			for k, hi := g.Row(j); k < hi; k++ {
				w := g.Weight[k]
				if w == 0 {
					continue
				}
				av := a[g.Col[k]]
				base := w * bp(f, av)
				for t := 0; t < m; t++ {
					row[t] += w*bp(t, av) - base
				}
			}
			best, bestV, bestD := -1, vf, int64(0)
			for t := 0; t < m; t++ {
				if t == f || loads[t]+g.sizes[j] > topo.Capacities[t] {
					continue
				}
				vt := violAt(j, t)
				if vt < bestV || (vt == bestV && best >= 0 && row[t] < bestD) {
					best, bestV, bestD = t, vt, row[t]
				}
			}
			if best < 0 {
				continue
			}
			loads[f] -= g.sizes[j]
			loads[best] += g.sizes[j]
			a[j] = best
			remaining -= vf - bestV
			moved = true
		}
		if !moved {
			break
		}
	}
	return remaining
}

// moveTimingOK reports whether component j placed on partition t satisfies
// every finite budget against the current positions of its partners (both
// delay directions).
func moveTimingOK(g *graph, a []int, d [][]int64, j, t int) bool {
	for k, hi := g.Row(j); k < hi; k++ {
		md := g.MaxDelay[k]
		if md == model.Unconstrained {
			continue
		}
		o := a[g.Col[k]]
		if d[t][o] > md || d[o][t] > md {
			return false
		}
	}
	return true
}
