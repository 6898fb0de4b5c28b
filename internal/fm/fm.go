// Package fm implements GFM, the first comparison baseline of the paper's
// §5: a generalization of the Fiduccia–Mattheyses interchange heuristic to
// M-way partitioning with arbitrary interconnection costs, variable
// component sizes and timing constraints. Each component carries M−1 gain
// entries (one per alternative partition); passes move one component at a
// time, locking it, allowing downhill moves, and roll back to the best
// prefix. A move is admissible only when it introduces no capacity or
// timing violation, so a feasible start stays feasible throughout — exactly
// the paper's protocol. Passes repeat until no pass improves ("runs till no
// more improvement is possible").
package fm

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

// Options tunes Solve.
type Options struct {
	// MaxPasses bounds the number of passes; ≤ 0 means run to
	// convergence (the paper's GFM configuration).
	MaxPasses int
	// RelaxTiming ignores the timing constraints (Table II mode).
	RelaxTiming bool
	// MaxMovesPerPass bounds the moves attempted in one pass;
	// ≤ 0 means up to N (every component once).
	MaxMovesPerPass int
	// BoundaryOnly restricts move selection to boundary components —
	// those with a wire crossing partitions — refreshed at every pass
	// start and grown with the wire neighborhood of each applied move.
	// A search-space heuristic for the multi-level uncoarsening pass,
	// where improvements concentrate on the projection seams; interior
	// components with purely linear gains are only reached once a
	// neighbor's move exposes them. Off by default (the paper's GFM scans
	// every component).
	BoundaryOnly bool
	// OnPass, when set, observes the objective after every pass.
	OnPass func(pass int, objective int64)
}

// Result is the outcome of a solve.
type Result struct {
	Assignment model.Assignment
	Objective  int64 // α·linear + β·quadratic
	WireLength int64
	Passes     int
	Moves      int // accepted (kept) moves across all passes
	// Stopped reports the passes were cut short by ctx cancellation; the
	// interrupted pass was first rolled back to its best prefix, so the
	// returned assignment stays feasible and no worse than the pass start.
	Stopped bool
}

type move struct {
	j        int
	from, to int
}

// Solve improves a feasible initial assignment by FM-style passes. The
// initial assignment must satisfy C1 and (unless relaxed) C2; the result is
// guaranteed to satisfy them too. A ctx already cancelled at entry returns
// ctx.Err(); cancellation mid-pass stops the move selection, rolls the pass
// back to its best prefix, and returns with Result.Stopped set.
func Solve(ctx context.Context, p *model.Problem, initial model.Assignment, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	norm := p.Normalized()
	if !norm.CapacityFeasible(initial) || len(initial) != norm.N() || !initial.Valid(norm.M()) {
		return nil, errors.New("fm: initial assignment must be complete and capacity-feasible")
	}
	if !opts.RelaxTiming && !norm.TimingFeasible(initial) {
		return nil, errors.New("fm: initial assignment must be timing-feasible")
	}
	cs := sparsemat.Build(norm.Circuit)
	t, err := gains.New(norm, cs, initial)
	if err != nil {
		return nil, err
	}
	n := norm.N()
	maxMoves := opts.MaxMovesPerPass
	if maxMoves <= 0 {
		maxMoves = n
	}

	admissible := func(j, to int) bool {
		if !t.CapacityOK(j, to) {
			return false
		}
		return opts.RelaxTiming || t.TimingOK(j, to)
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
	trail := make([]move, 0, n)
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

		for len(trail) < maxMoves {
			// One poll per selection (each costs O(N·M) gain scans); on
			// cancellation the roll-back below still runs, so the pass
			// never leaves a worse-than-prefix state behind.
			if ck.Now() {
				break
			}
			// Select the best admissible move over all unlocked
			// components and their M−1 alternative partitions. The scan
			// walks the complement of the lock set one word at a time
			// (ascending, like the plain loop it replaced), so
			// already-locked stretches cost one word test, not one branch
			// per component.
			bestDelta := int64(math.MaxInt64)
			bestJ, bestTo := -1, -1
			for wi, lwv := range lw {
				rem := ^lwv
				if cw != nil {
					rem &= cw[wi]
				}
				for ; rem != 0; rem &= rem - 1 {
					j := wi<<6 + bits.TrailingZeros64(rem)
					if j >= n {
						break
					}
					cur := t.Partition(j)
					row := t.DeltaRow(j)
					for to, d := range row {
						if to == cur || d >= bestDelta {
							continue
						}
						if admissible(j, to) {
							bestDelta, bestJ, bestTo = d, j, to
						}
					}
				}
			}
			if bestJ < 0 {
				break // no admissible move left
			}
			from := t.Partition(bestJ)
			t.Apply(bestJ, bestTo)
			locked.Set(bestJ)
			if cand != nil {
				// The move can turn interior wire neighbors into boundary
				// components; grow the candidate set so they stay visible
				// for the rest of the pass.
				lo, hi := cs.Row(bestJ)
				for k := lo; k < hi; k++ {
					if cs.Weight[k] != 0 {
						cand.Set(int(cs.Col[k]))
					}
				}
			}
			trail = append(trail, move{j: bestJ, from: from, to: bestTo})
			if obj := t.Objective(); obj < bestObj {
				bestObj = obj
				bestPrefix = len(trail)
			}
		}

		// Roll back to the best prefix.
		for k := len(trail) - 1; k >= bestPrefix; k-- {
			t.Apply(trail[k].j, trail[k].from)
		}
		kept += bestPrefix
		if opts.OnPass != nil {
			opts.OnPass(passes, t.Objective())
		}
		improved := bestObj < startObj
		if !improved || ck.Stopped() || (opts.MaxPasses > 0 && passes >= opts.MaxPasses) {
			break
		}
	}

	a := t.Assignment()
	return &Result{
		Assignment: a,
		Objective:  norm.Objective(a),
		WireLength: norm.WireLength(a),
		Passes:     passes,
		Moves:      kept,
		Stopped:    ck.Stopped(),
	}, nil
}
