// Package kl implements GKL, the second comparison baseline of the paper's
// §5: a generalization of the Kernighan–Lin heuristic that exchanges a pair
// of components at a time, generalized to M-way partitioning, arbitrary
// interconnection costs, variable component sizes and timing constraints.
// Each inner pass performs a sequence of locked swaps (downhill swaps
// allowed) and rolls back to the best prefix; a swap is admissible only if
// it keeps capacity and timing feasibility. Following the paper, the outer
// loop is cut off after a fixed number of passes (6) "due to excessive CPU
// runtime … any gain obtained beyond the first 6 outer loops is
// insignificant".
package kl

import (
	"context"
	"errors"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/gains"
	"repro/internal/interrupt"
	"repro/internal/model"
	"repro/internal/sparsemat"
)

// DefaultMaxPasses is the paper's outer-loop cutoff.
const DefaultMaxPasses = 6

// Options tunes Solve.
type Options struct {
	// MaxPasses bounds the outer loops; ≤ 0 means DefaultMaxPasses.
	MaxPasses int
	// RelaxTiming ignores the timing constraints (Table II mode).
	RelaxTiming bool
	// MaxSwapsPerPass bounds the inner swap sequence; ≤ 0 means up to
	// N/2 (every component swapped at most once per pass).
	MaxSwapsPerPass int
	// BoundaryOnly restricts swap selection to pairs with at least one
	// boundary member — a component with a wire crossing partitions —
	// refreshed at every pass start and grown with the wire neighborhood
	// of each applied swap. A search-space heuristic for the multi-level
	// uncoarsening pass; off by default (the paper's GKL scans every
	// pair).
	BoundaryOnly bool
	// OnPass, when set, observes the objective after every pass.
	OnPass func(pass int, objective int64)
}

// Result is the outcome of a solve.
type Result struct {
	Assignment model.Assignment
	Objective  int64
	WireLength int64
	Passes     int
	Swaps      int // accepted (kept) swaps across all passes
	// Stopped reports the passes were cut short by ctx cancellation; the
	// interrupted pass was first rolled back to its best prefix, so the
	// returned assignment stays feasible and no worse than the pass start.
	Stopped bool
}

type swap struct{ j1, j2 int }

// Solve improves a feasible initial assignment by KL-style swap passes.
// The initial assignment must satisfy C1 and (unless relaxed) C2; the
// result is guaranteed to satisfy them too. Note that pure swaps preserve
// the multiset of partition populations only when sizes are equal; with
// variable sizes admissibility is checked against the actual loads.
// A ctx already cancelled at entry returns ctx.Err(); cancellation mid-pass
// stops the swap selection, rolls the pass back to its best prefix, and
// returns with Result.Stopped set.
func Solve(ctx context.Context, p *model.Problem, initial model.Assignment, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	norm := p.Normalized()
	if !norm.CapacityFeasible(initial) || len(initial) != norm.N() || !initial.Valid(norm.M()) {
		return nil, errors.New("kl: initial assignment must be complete and capacity-feasible")
	}
	if !opts.RelaxTiming && !norm.TimingFeasible(initial) {
		return nil, errors.New("kl: initial assignment must be timing-feasible")
	}
	cs := sparsemat.Build(norm.Circuit)
	t, err := gains.New(norm, cs, initial)
	if err != nil {
		return nil, err
	}
	n := norm.N()
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = DefaultMaxPasses
	}
	maxSwaps := opts.MaxSwapsPerPass
	if maxSwaps <= 0 {
		maxSwaps = n / 2
	}

	admissible := func(j1, j2 int) bool {
		if !t.SwapCapacityOK(j1, j2) {
			return false
		}
		return opts.RelaxTiming || t.SwapTimingOK(j1, j2)
	}

	ck := interrupt.New(ctx, 0)
	locked := bitset.New(n)
	lw := locked.Words()
	var cand *bitset.Set
	var cw []uint64
	if opts.BoundaryOnly {
		cand = bitset.New(n)
		cw = cand.Words()
	}
	trail := make([]swap, 0, n/2)
	passes, kept := 0, 0
	for {
		passes++
		locked.Reset()
		if cand != nil {
			t.Boundary(cand)
		}
		trail = trail[:0]
		startObj := t.Objective()
		bestObj := startObj
		bestPrefix := 0

		for len(trail) < maxSwaps {
			// One poll per selection (each costs an O(N²) pair scan); on
			// cancellation the roll-back below still runs, so the pass
			// never leaves a worse-than-prefix state behind.
			if ck.Now() {
				break
			}
			// Select the best admissible swap over all unlocked pairs.
			// Each component carries N−1 implicit gain entries; the scan
			// derives them in O(1) from the move-delta table plus the
			// direct-coupling correction. An eligible partner j2 is
			// unlocked and in a different partition than j1, so the inner
			// scan jumps over ineligible stretches one
			// ^(locked|members(s1)) word at a time — the visit order stays
			// ascending, identical to the plain nested loop.
			bestDelta := int64(math.MaxInt64)
			bestJ1, bestJ2 := -1, -1
			for w1, lv := range lw {
				for rem1 := ^lv; rem1 != 0; rem1 &= rem1 - 1 {
					j1 := w1<<6 + bits.TrailingZeros64(rem1)
					if j1 >= n {
						break
					}
					// Boundary restriction: a pair is eligible when at
					// least one member is a candidate — j1 itself, or else
					// the j2 scan is masked down to candidates.
					j1Cand := cw == nil || cand.Test(j1)
					pw := t.Members(t.Partition(j1)).Words()
					for j2 := j1 + 1; j2 < n; {
						w := j2 >> 6
						elig := ^(lw[w] | pw[w])
						if !j1Cand {
							elig &= cw[w]
						}
						rem := elig >> uint(j2&63)
						if rem == 0 {
							j2 = (w + 1) << 6
							continue
						}
						j2 += bits.TrailingZeros64(rem)
						if j2 >= n {
							break
						}
						d := t.SwapDelta(j1, j2)
						if d < bestDelta && admissible(j1, j2) {
							bestDelta, bestJ1, bestJ2 = d, j1, j2
						}
						j2++
					}
				}
			}
			if bestJ1 < 0 {
				break
			}
			t.ApplySwap(bestJ1, bestJ2)
			locked.Set(bestJ1)
			locked.Set(bestJ2)
			if cand != nil {
				// The swap can expose interior wire neighbors; keep them
				// visible for the rest of the pass.
				for _, j := range [2]int{bestJ1, bestJ2} {
					lo, hi := cs.Row(j)
					for k := lo; k < hi; k++ {
						if cs.Weight[k] != 0 {
							cand.Set(int(cs.Col[k]))
						}
					}
				}
			}
			trail = append(trail, swap{bestJ1, bestJ2})
			if obj := t.Objective(); obj < bestObj {
				bestObj = obj
				bestPrefix = len(trail)
			}
		}

		// Roll back to the best prefix (swaps are self-inverse).
		for k := len(trail) - 1; k >= bestPrefix; k-- {
			t.ApplySwap(trail[k].j1, trail[k].j2)
		}
		kept += bestPrefix
		if opts.OnPass != nil {
			opts.OnPass(passes, t.Objective())
		}
		improved := bestObj < startObj
		if !improved || ck.Stopped() || passes >= maxPasses {
			break
		}
	}

	a := t.Assignment()
	return &Result{
		Assignment: a,
		Objective:  norm.Objective(a),
		WireLength: norm.WireLength(a),
		Passes:     passes,
		Swaps:      kept,
		Stopped:    ck.Stopped(),
	}, nil
}
