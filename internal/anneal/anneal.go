// Package anneal is a simulated-annealing partitioner — an *additional*
// baseline beyond the paper's GFM/GKL comparison (the dominant alternative
// school of placement/partitioning heuristics in the early 1990s). It
// anneals over the same embedded objective as the QBP solver: capacity
// constraints restrict the move set, timing constraints contribute penalty
// terms, so the temperature schedule can pass through infeasible states and
// the best feasible state seen is tracked separately.
package anneal

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/interrupt"
	"repro/internal/model"
	"repro/internal/qbp"
	"repro/internal/sparsemat"
)

// Options tunes Solve. The zero value gives a schedule comparable in CPU
// to the paper's QBP budget on Table I circuits.
type Options struct {
	// MovesPerStage is the number of attempted moves per temperature;
	// ≤ 0 means 40·N.
	MovesPerStage int
	// Stages is the number of temperature steps; ≤ 0 means 60.
	Stages int
	// Cooling is the geometric factor per stage; 0 means 0.90.
	Cooling float64
	// Penalty is the timing-violation charge (as in the QBP embedding);
	// ≤ 0 means qbp.DefaultPenalty.
	Penalty int64
	// RelaxTiming drops the timing constraints.
	RelaxTiming bool
	// Initial seeds the search; it must satisfy C1. Nil draws a random
	// capacity-feasible start.
	Initial model.Assignment
	// Seed drives all randomness.
	Seed int64
}

// Result is the outcome of a solve.
type Result struct {
	Assignment model.Assignment
	Objective  int64
	WireLength int64
	Feasible   bool
	Moves      int64 // accepted moves
	// Stopped reports the schedule was cut short by ctx cancellation;
	// Assignment is then the best state seen before the stop.
	Stopped bool
}

// Solve anneals single-component moves over the penalized objective. A ctx
// already cancelled at entry returns ctx.Err(); cancellation mid-schedule
// stops at the next stage boundary (amortized move-level checks inside a
// stage) and returns the best state seen with Result.Stopped set.
func Solve(ctx context.Context, p *model.Problem, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	norm := p.Normalized()
	cs := sparsemat.Build(norm.Circuit)
	n, m := norm.N(), norm.M()
	b, d := norm.Topology.Cost, norm.Topology.Delay
	penalty := opts.Penalty
	if penalty <= 0 {
		penalty = qbp.DefaultPenalty
	}
	movesPerStage := opts.MovesPerStage
	if movesPerStage <= 0 {
		movesPerStage = 40 * n
	}
	stages := opts.Stages
	if stages <= 0 {
		stages = 60
	}
	cooling := opts.Cooling
	if cooling == 0 {
		cooling = 0.90
	}
	if cooling <= 0 || cooling >= 1 {
		return nil, errors.New("anneal: cooling must be in (0,1)")
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Working state.
	var u model.Assignment
	if opts.Initial != nil {
		if len(opts.Initial) != n || !opts.Initial.Valid(m) || !norm.CapacityFeasible(opts.Initial) {
			return nil, errors.New("anneal: initial assignment must be complete and capacity-feasible")
		}
		u = opts.Initial.Clone()
	} else {
		var err error
		u, err = qbp.ConstructiveStart(norm, penalty)
		if err != nil {
			return nil, err
		}
	}
	loads := norm.Loads(u)

	// Penalized delta of moving j to partition `to` (both directions of
	// every arc, penalty *instead of* the coupling on violated slots).
	ord := func(i1, i2, k int) int64 {
		if md := cs.MaxDelay[k]; !opts.RelaxTiming && md != model.Unconstrained && d[i1][i2] > md {
			return penalty
		}
		return cs.Weight[k] * b[i1][i2]
	}
	moveDelta := func(j, to int) int64 {
		cur := u[j]
		delta := norm.LinearAt(to, j) - norm.LinearAt(cur, j)
		lo, hi := cs.Row(j)
		for k := lo; k < hi; k++ {
			o := u[cs.Col[k]]
			delta += ord(to, o, k) + ord(o, to, k) - ord(cur, o, k) - ord(o, cur, k)
		}
		return delta
	}
	value := func(a model.Assignment) int64 {
		var v int64
		for j := 0; j < n; j++ {
			v += norm.LinearAt(a[j], j)
		}
		for j := 0; j < n; j++ {
			lo, hi := cs.Row(j)
			for k := lo; k < hi; k++ {
				v += ord(a[j], a[cs.Col[k]], k)
			}
		}
		return v
	}
	feasible := func(a model.Assignment) bool {
		return opts.RelaxTiming || norm.TimingFeasible(a)
	}

	cur := value(u)
	best := u.Clone()
	bestVal := cur
	var bestFeasible model.Assignment
	bestFeasibleObj := int64(math.MaxInt64)
	if feasible(u) {
		bestFeasible = u.Clone()
		bestFeasibleObj = norm.Objective(u)
	}

	// Initial temperature: the mean uphill delta of a move sample, so the
	// early acceptance rate is high without being hand-tuned.
	var sampleSum float64
	samples := 0
	for k := 0; k < 4*n; k++ {
		j := rng.Intn(n)
		to := rng.Intn(m)
		if to == u[j] || loads[to]+norm.Circuit.Sizes[j] > norm.Topology.Capacities[to] {
			continue
		}
		if dl := moveDelta(j, to); dl > 0 {
			sampleSum += float64(dl)
			samples++
		}
	}
	temp := 10.0
	if samples > 0 {
		temp = sampleSum / float64(samples)
	}

	var accepted int64
	ck := interrupt.New(ctx, 0)
	for stage := 0; stage < stages; stage++ {
		if ck.Now() {
			break
		}
		for move := 0; move < movesPerStage; move++ {
			if ck.Stop() {
				break
			}
			j := rng.Intn(n)
			to := rng.Intn(m)
			if to == u[j] || loads[to]+norm.Circuit.Sizes[j] > norm.Topology.Capacities[to] {
				continue
			}
			delta := moveDelta(j, to)
			if delta > 0 && rng.Float64() >= math.Exp(-float64(delta)/temp) {
				continue
			}
			loads[u[j]] -= norm.Circuit.Sizes[j]
			loads[to] += norm.Circuit.Sizes[j]
			u[j] = to
			cur += delta
			accepted++
			if cur < bestVal {
				bestVal = cur
				copy(best, u)
			}
			if cur < bestFeasibleObj && feasible(u) {
				// feasible ⇒ no penalties ⇒ cur is the true objective.
				bestFeasibleObj = cur
				bestFeasible = append(bestFeasible[:0], u...)
			}
		}
		temp *= cooling
	}

	chosen := best
	if bestFeasible != nil {
		chosen = bestFeasible
	}
	res := &Result{
		Assignment: chosen.Clone(),
		Objective:  norm.Objective(chosen),
		WireLength: norm.WireLength(chosen),
		Moves:      accepted,
		Stopped:    ck.Stopped(),
	}
	res.Feasible = norm.CapacityFeasible(chosen) && feasible(chosen)
	return res, nil
}
