// Package qbp implements the paper's primary contribution: the partitioning
// problem under timing (C2) and capacity (C1) constraints, reformulated as
// an unconstrained-in-C2 Quadratic Boolean Program
//
//	min over y ∈ S of yᵀQ̂y,   S = {y satisfying C1 and C3},
//
// where Q̂ is the cost matrix with timing constraints embedded as raised
// entries (Theorem 2), solved by the generalized/enhanced Burkard heuristic
// of §4.2–§4.3:
//
//	STEP 2: bounds ω_r ≥ Σ_s q̂[r][s]·y_s for all y ∈ S (equation 2)
//	STEP 3: η_s = Σ_r q̂[r][s]·u_r (+ ω_s·u_s per equation 3), ξ = Σ ω_r·u_r
//	STEP 4: z = min over S of Σ η_r·u_r   — a Generalized Assignment Problem
//	STEP 5: h_r += η_r / max(1, |z − ξ|)
//	STEP 6: u ← argmin over S of Σ h_r·u_r — another GAP
//	STEP 7: keep the best yᵀQ̂y seen so far
//
// The two §4.3 enhancements are central here: the number of partitions M is
// small, and Q̂ is never materialized — η and ω are accumulated from sparse
// per-component wire/timing arc lists, so one iteration costs
// O(M·(nnz(A) + nnz(D_C)) + GAP) instead of M²N².
package qbp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/flatmat"
	"repro/internal/gains"
	"repro/internal/gap"
	"repro/internal/interrupt"
	"repro/internal/model"
	"repro/internal/qmatrix"
	"repro/internal/sparsemat"
)

// DefaultPenalty is the raised Q̂ entry for timing-violating assignment
// pairs; the paper uses 50 in all experiments.
const DefaultPenalty = 50

// DefaultIterations matches the paper's experimental setup (100 iterations
// per circuit).
const DefaultIterations = 100

// AutoPenaltyCeiling caps the AutoPenalty derivation. The penalty appears
// once per violated arc direction in yᵀQ̂y, so the ceiling leaves headroom
// for millions of simultaneous violations before the penalized value itself
// could wrap; couplings large enough to exceed it already out-bid any
// violation by construction, so clamping loses nothing.
const AutoPenaltyCeiling = math.MaxInt64 / (1 << 24)

// Options tunes Solve. The zero value reproduces the paper's setup.
type Options struct {
	// Iterations is the number of Burkard iterations (STEP 3–8);
	// ≤ 0 means DefaultIterations.
	Iterations int
	// Penalty is the raised Q̂ entry for timing-violating pairs;
	// ≤ 0 means DefaultPenalty. Ignored when AutoPenalty is set.
	Penalty int64
	// AutoPenalty derives the penalty from the problem scale instead:
	// 1 + the largest total coupling of any single component (its wire
	// weights times the largest B entry, plus its linear range), so no
	// single-component relocation can ever out-bid fixing a violation.
	// Theorem 2 allows any raised value; the paper's fixed 50 suits its
	// instances, while this choice adapts to arbitrary cost scales.
	AutoPenalty bool
	// RelaxTiming drops the timing constraints entirely (the paper's
	// Table II configuration): no entries of Q̂ are raised.
	RelaxTiming bool
	// OmegaInEta adds the ω_s·u_s term of equation (3) to η. The paper's
	// STEP 3 omits it (the heuristic then relinearizes at the current
	// point), and that is the default here too: the ω term makes every
	// currently-occupied slot look prohibitively expensive to the
	// subproblems, which destroys convergence in practice. Kept as an
	// ablation switch.
	OmegaInEta bool
	// Refine selects the GAP refinement level for the STEP 4/6
	// subproblems; the default is gap.RefineShift.
	Refine gap.RefineLevel
	// Initial is an optional starting assignment; it must satisfy C1.
	// When nil, a seeded random capacity-feasible start is generated
	// (the paper notes QBP maintains its quality "from any arbitrary
	// initial solution").
	Initial model.Assignment
	// Seed drives the random initial solution.
	Seed int64
	// StopOnFeasible stops as soon as any timing-feasible iterate is
	// found (used when generating initial solutions).
	StopOnFeasible bool
	// DisableRestarts turns off the stall handling: when the STEP 6
	// iterate repeats, the accumulated h is reset and the current iterate
	// is randomly kicked so the remaining iteration budget keeps
	// exploring. (An enhancement over the literal §4.2 listing, which
	// otherwise idles at a fixed point of the averaged direction; kept
	// switchable for ablation.)
	DisableRestarts bool
	// DisablePolish turns off the final polish: an exact local search on
	// the embedded objective yᵀQ̂y (single moves, then joint relocation of
	// violated pairs) applied to the best solutions found. (Enhancement;
	// kept switchable for ablation.)
	DisablePolish bool
	// OnIteration, when set, observes each iteration.
	OnIteration func(it Iteration)
	// OnProgress, when set, observes each iteration with the richer
	// telemetry snapshot (incumbents, restarts, wall time). Under
	// SolveMultiStart the same callback is invoked concurrently from every
	// worker, so it must be safe for concurrent use.
	OnProgress func(pr Progress)

	// Scratch, when non-nil, lends a reusable buffer holder to this solve:
	// the per-solve allocations of the pipeline are paid once and reused by
	// every later solve through the same holder, staying warm across
	// same-shape problems and reallocating transparently when the shape
	// changes. A holder must not be used by two solves concurrently (it is
	// a single buffer set, exactly like the per-worker scratch inside
	// SolveMultiStart — which manages its own holders and ignores this
	// field). Reuse can never change a result: every buffer is rebuilt or
	// invalidated at solve entry, a contract TestScratchReuseDeterminism
	// pins.
	Scratch *Scratch

	// sc lends a reusable scratch buffer set to this solve. Package-internal
	// (the multi-start workers share one per worker); nil means Solve
	// allocates its own and takes precedence over Scratch.
	sc *scratch
	// graph is the coupling graph SolveMultiStart shares across its starts;
	// nil means Solve builds its own.
	graph *sharedGraph
	// progressStart tags Progress snapshots with the multistart index.
	progressStart int
}

// Iteration is a progress snapshot passed to Options.OnIteration.
type Iteration struct {
	K         int     // 1-based iteration number
	StepZ     float64 // z of STEP 4
	Current   int64   // penalized value of u^(k+1)
	Best      int64   // best penalized value so far
	Penalized bool    // whether Current includes active penalties
}

// Progress is the telemetry snapshot passed to Options.OnProgress after
// every iteration. All fields are plain values — the callback may retain
// the struct.
type Progress struct {
	// Start is the multistart index that produced this snapshot
	// (0 for plain Solve).
	Start int
	// Iteration is the 1-based iteration just completed; Iterations is
	// the configured budget.
	Iteration, Iterations int
	// BestPenalized is the best embedded objective yᵀQ̂y seen so far.
	BestPenalized int64
	// BestFeasible is the best timing-feasible true objective seen so
	// far, or math.MaxInt64 when no feasible iterate has been seen yet.
	BestFeasible int64
	// Restarts counts the stall-triggered kicks so far.
	Restarts int
	// Elapsed is the wall time since the solve started.
	Elapsed time.Duration
}

// TrajectoryPoint records one improvement of the penalized incumbent.
type TrajectoryPoint struct {
	Iteration int   // 1-based iteration of the improvement (0 = initial)
	Penalized int64 // incumbent yᵀQ̂y after it
}

// SolveStats is the per-solve telemetry folded into Result.Stats:
// iteration counts, restart/η-rebuild counters, the incumbent-cost
// trajectory, and wall time per phase. Under SolveMultiStart the counters
// are summed over all completed starts (Starts reports how many) and the
// trajectory is the winning start's.
type SolveStats struct {
	// Starts is the number of completed solves folded into these stats
	// (1 for plain Solve).
	Starts int
	// Iterations counts Burkard iterations performed.
	Iterations int
	// Restarts counts stall-triggered kicks of the iterate.
	Restarts int
	// EtaFull and EtaIncremental count the STEP 3 η rebuild strategies
	// chosen (full recompute vs dirty-column refresh).
	EtaFull, EtaIncremental int
	// Density is the coupling matrix's off-diagonal fill fraction
	// NNZ/(N·(N−1)), and NNZ its stored arc count. All starts of a
	// SolveMultiStart share one matrix, so every start reports the same
	// values.
	Density float64
	NNZ     int
	// Trajectory is the penalized-incumbent improvement history.
	Trajectory []TrajectoryPoint
	// SetupTime, IterTime and PolishTime are the wall times of the three
	// solve phases (ω/kernel construction, the iteration loop, the final
	// polish). Telemetry only — they never influence the search.
	SetupTime, IterTime, PolishTime time.Duration
}

// add folds another completed solve's counters into s (multistart
// reduction). Trajectories are not merged — the caller keeps the winner's.
func (s *SolveStats) add(o SolveStats) {
	s.Starts += o.Starts
	s.Iterations += o.Iterations
	s.Restarts += o.Restarts
	s.EtaFull += o.EtaFull
	s.EtaIncremental += o.EtaIncremental
	s.Density, s.NNZ = o.Density, o.NNZ
	s.SetupTime += o.SetupTime
	s.IterTime += o.IterTime
	s.PolishTime += o.PolishTime
}

// now is the telemetry clock behind SolveStats and Progress.Elapsed.
func now() time.Time {
	//lint:ignore map-order-leak telemetry wall clock: durations flow only into SolveStats/Progress, never into the search or its result ordering
	return time.Now()
}

// Result is the outcome of a solve.
type Result struct {
	// Assignment is the best solution found: the best timing-feasible one
	// when any was seen, otherwise the best by penalized value.
	Assignment model.Assignment
	// Objective is α·linear + β·quadratic of Assignment (no penalties).
	Objective int64
	// WireLength is the single-direction wire cost Σ w·b[A(j1)][A(j2)]
	// (the paper's reported metric for Manhattan B).
	WireLength int64
	// Penalized is the embedded objective yᵀQ̂y of Assignment.
	Penalized int64
	// TimingViolations counts violated constraints in Assignment.
	TimingViolations int
	// Feasible reports whether Assignment satisfies C1 and C2.
	Feasible bool
	// Iterations is the number of iterations performed.
	Iterations int
	// Stopped reports that the solve ended early because its context was
	// cancelled or its deadline expired; Assignment is then the best
	// incumbent found before the stop (always capacity-feasible).
	Stopped bool
	// Stats is the solve's telemetry (iterations, restarts, η rebuilds,
	// incumbent trajectory, per-phase wall time).
	Stats SolveStats
}

// solver carries the per-solve state.
type solver struct {
	p       *model.Problem // normalized PP(1,1)
	m, n    int
	b, d    [][]int64
	penalty int64
	relax   bool
	omega   []int64 // indexed by qmatrix.Pack(i, j, m)

	// Flat kernel state (initKernel).
	kern    *flatmat.Kernel
	csr     *sparsemat.CSR // coupling graph, shared read-only across multistart starts
	class   []int32        // per-arc delay class, aligned with csr.Col
	linFlat []int64        // item-major flat linear costs, nil when Linear is nil

	sc *scratch

	// ck is the cooperative-cancellation checker threaded through every
	// phase; the zero value (helper constructors) never stops.
	ck    interrupt.Checker
	stats SolveStats
}

// Scratch is an opaque reusable buffer holder for sequential solves (see
// Options.Scratch). The zero value is ready to use; the first solve through
// it allocates the buffers, later same-shape solves reuse them. Long-lived
// callers running many solves — the daemon's worker pool is the motivating
// one — hold one Scratch per worker goroutine.
type Scratch struct {
	sc *scratch
}

// lease returns the held buffer set, reallocating when the problem shape
// differs from the previous solve's, so a holder stays warm across
// same-shape solves and adapts silently otherwise.
func (w *Scratch) lease(m, n int) *scratch {
	if w.sc == nil || w.sc.m != m || w.sc.n != n {
		w.sc = newScratch(m, n)
	}
	return w.sc
}

// ensureScratch lazily attaches a scratch of the right shape; a lent
// scratch with mismatched dimensions is replaced rather than trusted.
func (s *solver) ensureScratch(lent *scratch) {
	if lent != nil && lent.m == s.m && lent.n == s.n {
		s.sc = lent
	}
	if s.sc == nil {
		s.sc = newScratch(s.m, s.n)
	}
	s.sc.etaValid = false
}

// Solve runs the generalized Burkard heuristic on p. A ctx that is already
// cancelled returns ctx.Err() immediately; a ctx cancelled mid-solve stops
// the iteration at the next boundary and returns the best incumbent found
// so far with Result.Stopped set. Without a cancellation the result is
// bit-identical for any ctx.
func Solve(ctx context.Context, p *model.Problem, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t0 := now()
	norm := p.Normalized()
	s := &solver{
		p:     norm,
		csr:   opts.graph.get(norm.Circuit),
		m:     norm.M(),
		n:     norm.N(),
		b:     norm.Topology.Cost,
		d:     norm.Topology.Delay,
		relax: opts.RelaxTiming,
	}
	s.penalty = opts.Penalty
	if s.penalty <= 0 {
		s.penalty = DefaultPenalty
	}
	if opts.AutoPenalty {
		s.penalty = s.autoPenalty()
	}
	iterations := opts.Iterations
	if iterations <= 0 {
		iterations = DefaultIterations
	}

	// Initial solution u^(1) ∈ S.
	var u []int
	if opts.Initial != nil {
		if len(opts.Initial) != s.n || !opts.Initial.Valid(s.m) {
			return nil, errors.New("qbp: initial assignment is not complete and in range")
		}
		if !norm.CapacityFeasible(opts.Initial) {
			return nil, errors.New("qbp: initial assignment violates capacity constraints (u⁽¹⁾ must lie in S)")
		}
		u = append([]int(nil), opts.Initial...)
	} else {
		var err error
		u, err = s.randomStart(rand.New(rand.NewSource(opts.Seed)))
		if err != nil {
			return nil, err
		}
	}

	// STEP 2: ω bounds (computed sparsely).
	s.omega = qmatrix.Omega(s.p, s.csr, s.effectivePenalty())

	// Flat kernels and reusable scratch.
	s.initKernel()
	lent := opts.sc
	if lent == nil && opts.Scratch != nil {
		lent = opts.Scratch.lease(s.m, s.n)
	}
	s.ensureScratch(lent)
	s.ck = interrupt.New(ctx, 0)
	s.stats.Starts = 1
	s.stats.Density = s.csr.Density()
	s.stats.NNZ = s.csr.NNZ()
	s.stats.SetupTime = now().Sub(t0)
	tIter := now()

	best := append([]int(nil), u...)
	bestVal := s.penalizedValue(u)
	var bestFeasible []int
	bestFeasibleObj := int64(math.MaxInt64)
	if s.relax || s.p.TimingFeasible(best) {
		bestFeasible = append([]int(nil), u...)
		bestFeasibleObj = s.p.Objective(u)
	}

	h := s.sc.h
	for r := range h {
		h[r] = 0
	}
	gapInst := &gap.Instance{
		Sizes:      s.p.Circuit.Sizes,
		Capacities: s.p.Topology.Capacities,
	}
	// The GAP subproblems are solved heuristically; pairwise-swap
	// refinement is what lets the linearized subproblem reshuffle
	// same-size components between partitions, which shift moves cannot
	// do under tight capacities. A small pass cap keeps each call cheap —
	// the subproblem only needs to be good, not converged.
	gapOpts := gap.Options{Refine: opts.Refine, MaxRefinePasses: 3}
	alternate := gapOpts.Refine == gap.RefineNone
	if alternate {
		gapOpts.Refine = gap.RefineSwap
	}

	rng := rand.New(rand.NewSource(opts.Seed + 0x9e3779b9))
	prev := s.sc.prev
	copy(prev, u)
	stall := 0
	lastRepaired := int64(math.MaxInt64)
	s.stats.Trajectory = append(s.stats.Trajectory, TrajectoryPoint{Iteration: 0, Penalized: bestVal})

	performed := 0
	for k := 1; k <= iterations; k++ {
		// Cooperative cancellation: one poll per iteration boundary keeps
		// the inner kernels branch-free; the GAP subproblems below poll
		// their own pass boundaries through the same ctx.
		if s.ck.Now() {
			break
		}
		// By default the GAP refinement level alternates between
		// iterations: deeply-refined (swap) subproblem solutions excel on
		// sparse circuits while lightly-refined (shift) ones track the
		// accumulated direction more smoothly on dense ones; alternating
		// gives the best-so-far tracker both trajectories.
		if alternate {
			if k%2 == 0 {
				gapOpts.Refine = gap.RefineShift
			} else {
				gapOpts.Refine = gap.RefineSwap
			}
		}
		// STEP 3: η from the sparse arc lists (incrementally against the
		// previous iterate where profitable), ξ from ω.
		etaI := s.refreshEta(u, opts.OmegaInEta)
		var xiI int64
		for j, i := range u {
			xiI += s.omega[qmatrix.Pack(i, j, s.m)]
		}
		xi := float64(xiI)

		// STEP 4: z = min Σ η_r u_r over S. The minimizer uz is a
		// relinearization of the quadratic objective at the current point,
		// so it is itself a useful candidate — STEP 7's best-so-far
		// tracking considers it alongside the STEP 6 iterate (an
		// enhancement over the literal listing, which only uses z).
		gapInst.FlatCosts, gapInst.FlatCosts64 = etaI, nil
		uz, z, ok4 := gap.Solve(ctx, gapInst, gapOpts)
		if !ok4 {
			if s.ck.Now() {
				break // cancelled mid-subproblem: keep the incumbent
			}
			return nil, errors.New("qbp: STEP 4 subproblem has no capacity-feasible solution")
		}
		if cur := s.penalizedValue(uz); cur < bestVal {
			bestVal = cur
			copy(best, uz)
			s.stats.Trajectory = append(s.stats.Trajectory, TrajectoryPoint{Iteration: k, Penalized: cur})
		}
		if s.relax || s.p.TimingFeasible(uz) {
			if obj := s.p.Objective(uz); obj < bestFeasibleObj {
				bestFeasibleObj = obj
				bestFeasible = append(bestFeasible[:0], uz...)
			}
		}

		// STEP 5: accumulate the direction vector h.
		denom := math.Abs(z - xi)
		if denom < 1 {
			denom = 1
		}
		accumulateH(h, etaI, denom)

		// STEP 6: next iterate from the accumulated direction.
		gapInst.FlatCosts, gapInst.FlatCosts64 = nil, h
		next, _, ok6 := gap.Solve(ctx, gapInst, gapOpts)
		if !ok6 {
			if s.ck.Now() {
				break
			}
			return nil, errors.New("qbp: STEP 6 subproblem has no capacity-feasible solution")
		}
		u = next
		performed = k

		// Stall handling: the averaged direction h has a fixed point; once
		// the iterate repeats, reset the accumulation and kick the iterate
		// so the remaining budget explores new basins (STEP 7's best-so-far
		// keeps everything already found).
		if !opts.DisableRestarts {
			if equalInts(u, prev) {
				stall++
			} else {
				stall = 0
			}
			copy(prev, u)
			if stall >= 2 {
				stall = 0
				for r := range h {
					h[r] = 0
				}
				s.kick(u, rng)
				s.stats.Restarts++
			}
		}

		// STEP 7: best-so-far by penalized value, plus the best
		// timing-feasible solution by true objective.
		cur := s.penalizedValue(u)
		if cur < bestVal {
			bestVal = cur
			copy(best, u)
			s.stats.Trajectory = append(s.stats.Trajectory, TrajectoryPoint{Iteration: k, Penalized: cur})
		}
		if s.relax || s.p.TimingFeasible(u) {
			if obj := s.p.Objective(u); obj < bestFeasibleObj {
				bestFeasibleObj = obj
				bestFeasible = append(bestFeasible[:0], u...)
			}
		}
		// Whenever the penalized incumbent improves, try to convert it
		// into a feasible candidate: under tight timing constraints the
		// whole-assignment GAP iterates are rarely feasible end-to-end, so
		// the feasible incumbent would otherwise only improve via the
		// final polish. Min-conflicts clears the few residual violations;
		// a feasibility-preserving greedy descent then recovers the wire
		// length the repair gave up.
		if !s.relax && !opts.DisablePolish && bestVal < lastRepaired {
			lastRepaired = bestVal
			w := model.Assignment(s.sc.wbuf)
			copy(w, best)
			s.polish(w, false)
			//lint:ignore alloc-in-hot-loop repair runs only when the incumbent improves (lastRepaired gate), not per iteration
			if minConflicts(s.p, w, opts.Seed+int64(k), 10*s.n, &s.ck) == 0 {
				s.polish(w, true)
				if obj := s.p.Objective(w); obj < bestFeasibleObj {
					bestFeasibleObj = obj
					bestFeasible = append(bestFeasible[:0], w...)
				}
			}
		}

		if opts.OnIteration != nil {
			opts.OnIteration(Iteration{
				K: k, StepZ: z, Current: cur, Best: bestVal,
				Penalized: !s.relax,
			})
		}
		if opts.OnProgress != nil {
			feas := bestFeasibleObj
			if bestFeasible == nil {
				feas = math.MaxInt64
			}
			opts.OnProgress(Progress{
				Start:         opts.progressStart,
				Iteration:     k,
				Iterations:    iterations,
				BestPenalized: bestVal,
				BestFeasible:  feas,
				Restarts:      s.stats.Restarts,
				Elapsed:       now().Sub(t0),
			})
		}
		if opts.StopOnFeasible && bestFeasible != nil {
			break
		}
	}
	s.stats.Iterations = performed
	s.stats.IterTime = now().Sub(tIter)
	tPolish := now()

	if !opts.DisablePolish && !s.ck.Now() {
		// Exact local search on yᵀQ̂y over S for the best penalized
		// solution; a feasibility-preserving variant for the best feasible
		// one. Either may promote a new best feasible solution. Skipped
		// entirely on cancellation — the incumbent returns promptly rather
		// than paying for a repair pass the caller no longer wants.
		s.polish(best, false)
		if val := s.penalizedValue(best); val < bestVal {
			bestVal = val
		}
		consider := func(w []int) {
			if s.relax || s.p.TimingFeasible(w) {
				if obj := s.p.Objective(w); obj < bestFeasibleObj {
					bestFeasibleObj = obj
					bestFeasible = append(bestFeasible[:0], w...)
				}
			}
		}
		consider(best)
		if !s.relax && !s.p.TimingFeasible(best) {
			// The penalized best often sits a handful of violations away
			// from feasibility; min-conflicts repair plus a
			// feasibility-preserving polish turns it into a candidate.
			w := append(model.Assignment(nil), best...)
			if minConflicts(s.p, w, opts.Seed, 30*s.n, &s.ck) == 0 {
				s.polish(w, true)
				consider(w)
			}
		}
		if bestFeasible != nil {
			s.polish(bestFeasible, !s.relax)
			s.strongPolish(bestFeasible)
			bestFeasibleObj = s.p.Objective(model.Assignment(bestFeasible))
		}
	}

	s.stats.PolishTime = now().Sub(tPolish)

	chosen := best
	if bestFeasible != nil {
		chosen = bestFeasible
	}
	a := model.Assignment(append([]int(nil), chosen...))
	res := &Result{
		Assignment:       a,
		Objective:        s.p.Objective(a),
		WireLength:       s.p.WireLength(a),
		Penalized:        s.penalizedValue(chosen),
		TimingViolations: s.p.CountTimingViolations(a),
		Iterations:       performed,
		Stopped:          s.ck.Stopped(),
		Stats:            s.stats,
	}
	res.Feasible = s.p.CapacityFeasible(a) && (s.relax || res.TimingViolations == 0)
	return res, nil
}

// effectivePenalty is the penalty actually embedded (0 when timing is
// relaxed, so ω and values reduce to the plain quadratic problem).
func (s *solver) effectivePenalty() int64 {
	if s.relax {
		return 0
	}
	return s.penalty
}

// satAdd adds two values already clamped to [0, AutoPenaltyCeiling],
// saturating at the ceiling instead of wrapping.
func satAdd(a, b int64) int64 {
	if a > AutoPenaltyCeiling-b {
		return AutoPenaltyCeiling
	}
	return a + b
}

// satCoupling is 2·w·b saturated at AutoPenaltyCeiling. Weights and cost
// entries are validated non-negative, so only the upper bound can be hit.
func satCoupling(w, b int64) int64 {
	if w <= 0 || b <= 0 {
		return 0
	}
	if b > AutoPenaltyCeiling || w > AutoPenaltyCeiling/(2*b) {
		return AutoPenaltyCeiling
	}
	return 2 * w * b
}

// autoPenalty returns 1 + the largest total coupling of any single
// component (both directions), so fixing any one timing violation always
// out-bids whatever wire cost the move adds. Every accumulation saturates
// at AutoPenaltyCeiling: near-MaxInt64 couplings would otherwise wrap the
// running total into a negative (or small positive) penalty that no longer
// out-bids violations, and a coupling at the ceiling already dominates any
// single-move gain by construction.
func (s *solver) autoPenalty() int64 {
	var maxB int64
	for _, row := range s.b {
		for _, v := range row {
			if v > maxB {
				maxB = v
			}
		}
	}
	var worst int64
	cs := s.csr
	for j := 0; j < s.n; j++ {
		var tot int64
		lo, hi := cs.Row(j)
		for _, w := range cs.Weight[lo:hi] {
			tot = satAdd(tot, satCoupling(w, maxB))
		}
		if s.p.Linear != nil {
			var lo, hi int64 = math.MaxInt64, 0
			for i := 0; i < s.m; i++ {
				v := s.p.LinearAt(i, j)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if span := hi - lo; span > 0 {
				if span > AutoPenaltyCeiling {
					span = AutoPenaltyCeiling
				}
				tot = satAdd(tot, span)
			}
		}
		if tot > worst {
			worst = tot
		}
	}
	pen := worst
	if pen < AutoPenaltyCeiling {
		pen++
	}
	if pen < DefaultPenalty {
		pen = DefaultPenalty
	}
	return pen
}

// penalizedValue is yᵀQ̂y for the assignment u: linear term + for every
// ordered coupled pair either the raised penalty (violating slot, entry
// *set* to the penalty as in the paper's §3.3 matrix) or the wire coupling.
// The per-arc entry comes from the precomputed effective rows, so the
// O(nnz) CSR stream carries no timing branches.
func (s *solver) penalizedValue(u []int) int64 {
	var v int64
	if s.linFlat != nil {
		for j, i := range u {
			v += s.linFlat[qmatrix.Pack(i, j, s.m)]
		}
	}
	cs := s.csr
	for j1 := 0; j1 < s.n; j1++ {
		i1 := u[j1]
		lo, hi := cs.Row(j1)
		// Slicing the parallel arc arrays to one shared length lets the
		// compiler drop the per-arc bounds checks.
		col := cs.Col[lo:hi]
		wt := cs.Weight[lo:hi:hi][:len(col)]
		cl := s.class[lo:hi:hi][:len(col)]
		for k := range col {
			v += s.kern.Entry(int(cl[k]), i1, u[col[k]], wt[k])
		}
	}
	return v
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// kick randomly relocates ~10% of the components (at least 2) to other
// partitions that still have room, preserving capacity feasibility. The
// endpoints of currently-violated timing constraints are kicked first:
// stalls with residual violations usually pin a small cluster that single
// and pairwise moves cannot untangle, and scattering exactly that cluster
// lets the next iterations re-place it jointly.
func (s *solver) kick(u []int, rng *rand.Rand) {
	loads := s.sc.loads
	for i := range loads {
		loads[i] = 0
	}
	for j, i := range u {
		loads[i] += s.p.Circuit.Sizes[j]
	}
	var targets []int
	if !s.relax {
		cs := s.csr
		seen := s.sc.seen
		seen.Reset()
		for j1 := 0; j1 < s.n; j1++ {
			lo, hi := cs.Row(j1)
			for k := lo; k < hi; k++ {
				md := cs.MaxDelay[k]
				if md == model.Unconstrained {
					continue
				}
				o := u[cs.Col[k]]
				if s.d[u[j1]][o] > md || s.d[o][u[j1]] > md {
					if !seen.Test(j1) {
						seen.Set(j1)
						targets = append(targets, j1)
					}
				}
			}
		}
	}
	moves := s.n / 10
	if moves < 2 {
		moves = 2
	}
	if len(targets) > moves {
		moves = len(targets)
	}
	for t := 0; t < moves; t++ {
		var j int
		if t < len(targets) {
			j = targets[t]
		} else {
			j = rng.Intn(s.n)
		}
		fits := s.sc.fits[:0]
		for i := 0; i < s.m; i++ {
			if i != u[j] && loads[i]+s.p.Circuit.Sizes[j] <= s.p.Topology.Capacities[i] {
				fits = append(fits, i)
			}
		}
		if len(fits) == 0 {
			continue
		}
		to := fits[rng.Intn(len(fits))]
		loads[u[j]] -= s.p.Circuit.Sizes[j]
		loads[to] += s.p.Circuit.Sizes[j]
		u[j] = to
	}
}

// pairCost is the both-direction Q̂ contribution of one arc in delay class
// c with wire weight w between partitions iA and iB: the raised penalty in
// each violated direction, the wire coupling otherwise. Evaluated from the
// precomputed effective rows.
func (s *solver) pairCost(iA, iB, c int, w int64) int64 {
	return s.kern.Entry(c, iA, iB, w) + s.kern.Entry(c, iB, iA, w)
}

// timingOKAt reports whether component j placed on partition to satisfies
// all its timing bounds against the current positions in u.
func (s *solver) timingOKAt(u []int, j, to int) bool {
	cs := s.csr
	lo, hi := cs.Row(j)
	col := cs.Col[lo:hi]
	bounds := cs.MaxDelay[lo:hi:hi][:len(col)]
	for k := range col {
		md := bounds[k]
		if md == model.Unconstrained {
			continue
		}
		o := u[col[k]]
		if s.d[to][o] > md || s.d[o][to] > md {
			return false
		}
	}
	return true
}

// polish runs an exact greedy local search on u in place. With
// preserveFeasible it only takes timing-feasibility-preserving moves
// (driving the true objective); otherwise it drives yᵀQ̂y directly and
// finishes by trying joint relocations of still-violated pairs. Capacity
// feasibility is always maintained.
func (s *solver) polish(u []int, preserveFeasible bool) {
	loads := s.sc.loads
	for i := range loads {
		loads[i] = 0
	}
	for j, i := range u {
		loads[i] += s.p.Circuit.Sizes[j]
	}
	for pass := 0; pass < 60; pass++ {
		// Pass-boundary cancellation: the assignment is consistent between
		// passes, so stopping here leaves u a valid (partially polished)
		// incumbent. The zero-value checker of the helper constructors
		// never fires.
		if s.ck.Now() {
			return
		}
		if !s.polishPass(u, loads, preserveFeasible) {
			break
		}
	}
	if !preserveFeasible && !s.relax {
		s.repairPairs(u, loads)
	}
}

// polishPass is one serial best-improvement sweep: for each component in
// order, take the best capacity-feasible (and optionally
// timing-preserving) relocation. Each component's deltas to every target
// come from one move row. The timing test runs only for a target that
// would be taken; both tests are pure, so their order changes nothing.
func (s *solver) polishPass(u []int, loads []int64, preserveFeasible bool) bool {
	improved := false
	row := s.sc.mrow
	for j := 0; j < s.n; j++ {
		cur := u[j]
		s.moveRow(row, u, j)
		base := row[cur]
		bestTo, bestDelta := cur, int64(0)
		for to := 0; to < s.m; to++ {
			if to == cur || loads[to]+s.p.Circuit.Sizes[j] > s.p.Topology.Capacities[to] {
				continue
			}
			if d := row[to] - base; d < bestDelta && (!preserveFeasible || s.timingOKAt(u, j, to)) {
				bestDelta, bestTo = d, to
			}
		}
		if bestTo != cur {
			loads[cur] -= s.p.Circuit.Sizes[j]
			loads[bestTo] += s.p.Circuit.Sizes[j]
			u[j] = bestTo
			improved = true
		}
	}
	return improved
}

// strongPolish runs feasibility-preserving first-improvement sweeps of
// single moves and pair swaps on a feasible assignment until convergence,
// using the incremental move-delta table. This leaves the final solution
// locally optimal under the same move sets the interchange baselines use —
// the iteration supplies the basin, the polish the local optimum.
func (s *solver) strongPolish(u []int) {
	t, err := gains.New(s.p, s.csr, u)
	if err != nil {
		return
	}
	moveOK := func(j, to int) bool {
		if !t.CapacityOK(j, to) {
			return false
		}
		return s.relax || t.TimingOK(j, to)
	}
	swapOK := func(j1, j2 int) bool {
		if !t.SwapCapacityOK(j1, j2) {
			return false
		}
		return s.relax || t.SwapTimingOK(j1, j2)
	}
	for pass := 0; pass < 40; pass++ {
		if s.ck.Now() {
			break // the gains table is consistent between sweeps
		}
		improved := false
		for j := 0; j < s.n; j++ {
			cur := t.Partition(j)
			for to := 0; to < s.m; to++ {
				if to == cur || t.Delta(j, to) >= 0 || !moveOK(j, to) {
					continue
				}
				t.Apply(j, to)
				cur = to
				improved = true
			}
		}
		for j1 := 0; j1 < s.n; j1++ {
			for j2 := j1 + 1; j2 < s.n; j2++ {
				if t.Partition(j1) == t.Partition(j2) || t.SwapDelta(j1, j2) >= 0 || !swapOK(j1, j2) {
					continue
				}
				t.ApplySwap(j1, j2)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	copy(u, t.Assignment())
}

// repairPairs tries joint relocations of both endpoints of each violated
// timing constraint — single moves cannot fix a pair whose only legal
// layouts move both components.
func (s *solver) repairPairs(u []int, loads []int64) {
	cs := s.csr
	for round := 0; round < 4; round++ {
		fixedAny := false
		for j1 := 0; j1 < s.n; j1++ {
			rlo, rhi := cs.Row(j1)
			for k := rlo; k < rhi; k++ {
				j2 := int(cs.Col[k])
				md := cs.MaxDelay[k]
				if j2 < j1 || md == model.Unconstrained {
					continue
				}
				s1, s2 := u[j1], u[j2]
				if s.d[s1][s2] <= md && s.d[s2][s1] <= md {
					continue // not violated
				}
				bestDelta := int64(0)
				bestI1, bestI2 := s1, s2
				for i1 := 0; i1 < s.m; i1++ {
					for i2 := 0; i2 < s.m; i2++ {
						if i1 == s1 && i2 == s2 {
							continue
						}
						if !s.jointCapacityOK(u, loads, j1, i1, j2, i2) {
							continue
						}
						if d := s.jointDeltaPenalized(u, j1, i1, j2, i2); d < bestDelta {
							bestDelta, bestI1, bestI2 = d, i1, i2
						}
					}
				}
				if bestI1 != s1 || bestI2 != s2 {
					sz1, sz2 := s.p.Circuit.Sizes[j1], s.p.Circuit.Sizes[j2]
					loads[s1] -= sz1
					loads[s2] -= sz2
					loads[bestI1] += sz1
					loads[bestI2] += sz2
					u[j1], u[j2] = bestI1, bestI2
					fixedAny = true
				}
			}
		}
		if !fixedAny {
			return
		}
	}
}

// jointCapacityOK checks capacities after moving j1→i1 and j2→i2
// simultaneously. The four affected (bin, size-delta) pairs are folded in
// fixed-size arrays — this sits inside repairPairs's M² scan, where a map
// per probe dominated the allocation profile.
func (s *solver) jointCapacityOK(u []int, loads []int64, j1, i1, j2, i2 int) bool {
	sz1, sz2 := s.p.Circuit.Sizes[j1], s.p.Circuit.Sizes[j2]
	bins := [4]int{u[j1], u[j2], i1, i2}
	deltas := [4]int64{-sz1, -sz2, sz1, sz2}
	for x := 0; x < 4; x++ {
		b := bins[x]
		dup := false
		for y := 0; y < x; y++ {
			if bins[y] == b {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		var d int64
		for y := x; y < 4; y++ {
			if bins[y] == b {
				d += deltas[y]
			}
		}
		if loads[b]+d > s.p.Topology.Capacities[b] {
			return false
		}
	}
	return true
}

// jointDeltaPenalized is the exact yᵀQ̂y change of moving j1→i1 and j2→i2
// simultaneously: two CSR row walks, O(deg(j1)+deg(j2)).
func (s *solver) jointDeltaPenalized(u []int, j1, i1, j2, i2 int) int64 {
	s1, s2 := u[j1], u[j2]
	delta := s.p.LinearAt(i1, j1) - s.p.LinearAt(s1, j1) +
		s.p.LinearAt(i2, j2) - s.p.LinearAt(s2, j2)
	cs := s.csr
	lo, hi := cs.Row(j1)
	for k := lo; k < hi; k++ {
		c := int(s.class[k])
		w := cs.Weight[k]
		if int(cs.Col[k]) == j2 {
			delta += s.pairCost(i1, i2, c, w) - s.pairCost(s1, s2, c, w)
			continue
		}
		o := u[cs.Col[k]]
		delta += s.pairCost(i1, o, c, w) - s.pairCost(s1, o, c, w)
	}
	lo, hi = cs.Row(j2)
	for k := lo; k < hi; k++ {
		if int(cs.Col[k]) == j1 {
			continue // already counted from j1's side
		}
		o := u[cs.Col[k]]
		c := int(s.class[k])
		w := cs.Weight[k]
		delta += s.pairCost(i2, o, c, w) - s.pairCost(s2, o, c, w)
	}
	return delta
}

// EtaComputer performs STEP 3 η accumulations with precomputed sparse
// state. Exposed for the sparse-vs-dense ablation benchmark; Solve uses the
// same flat kernels internally (plus incremental maintenance between
// iterations, which this one-shot API deliberately does not exploit).
type EtaComputer struct {
	s    *solver
	rows [][]float64
}

// NewEtaComputer prepares the sparse state (coupling graph, ω bounds, flat
// effective-row kernels).
func NewEtaComputer(p *model.Problem, penalty int64) *EtaComputer {
	norm := p.Normalized()
	s := &solver{
		p:       norm,
		csr:     sparsemat.Build(norm.Circuit),
		m:       norm.M(),
		n:       norm.N(),
		b:       norm.Topology.Cost,
		d:       norm.Topology.Delay,
		penalty: penalty,
	}
	if s.penalty <= 0 {
		s.penalty = DefaultPenalty
	}
	s.omega = qmatrix.Omega(norm, s.csr, s.penalty)
	s.initKernel()
	s.sc = newScratch(s.m, s.n)
	rows := make([][]float64, s.m)
	for i := range rows {
		//lint:ignore alloc-in-hot-loop one-time construction of the reused result matrix
		rows[i] = make([]float64, s.n)
	}
	return &EtaComputer{s: s, rows: rows}
}

// Compute fills and returns the M×N η matrix for assignment u. The returned
// matrix is reused across calls.
func (e *EtaComputer) Compute(u model.Assignment) [][]float64 {
	s := e.s
	etaI := s.sc.etaI
	s.etaFull(etaI, u, false)
	for i := 0; i < s.m; i++ {
		row := e.rows[i]
		for j := 0; j < s.n; j++ {
			row[j] = float64(etaI[qmatrix.Pack(i, j, s.m)])
		}
	}
	return e.rows
}

// MinConflicts runs a capacity-preserving min-conflicts repair on u in
// place: while timing violations remain, a random conflicted component is
// moved to the partition minimizing its own violation count (ties broken at
// random, occasional noise moves escape plateaus). Returns the number of
// violated constraints remaining after at most maxSteps moves. This is the
// classic constraint-satisfaction tail-cleaner: the QBP iteration reliably
// drives violations to a few percent, and this removes the rest.
func MinConflicts(p *model.Problem, u model.Assignment, seed int64, maxSteps int) int {
	// A zero Checker never fires, so the exported entry point keeps its
	// context-free signature and exact behavior.
	var ck interrupt.Checker
	return minConflicts(p, u, seed, maxSteps, &ck)
}

// minConflicts is the implementation; solver-internal callers thread their
// own Checker so a deadline interrupts the repair walk mid-run (returning
// the current violation count, like every other best-so-far path).
func minConflicts(p *model.Problem, u model.Assignment, seed int64, maxSteps int, ck *interrupt.Checker) int {
	norm := p.Normalized()
	n, m := norm.N(), norm.M()
	d := norm.Topology.Delay
	rng := rand.New(rand.NewSource(seed))

	// Per-component constraint lists, flat: component j's constraints are
	// cl[off[j]:off[j+1]], in timing order (a counting sort places them).
	type cons struct {
		other int
		dc    int64
	}
	timing := norm.Circuit.Timing
	off := make([]int, n+1)
	for _, tc := range timing {
		off[tc.From+1]++
		off[tc.To+1]++
	}
	for j := 0; j < n; j++ {
		off[j+1] += off[j]
	}
	cl := make([]cons, off[n])
	for _, tc := range timing { // off[j] advances to j's end as it fills
		cl[off[tc.From]] = cons{tc.To, tc.MaxDelay}
		off[tc.From]++
		cl[off[tc.To]] = cons{tc.From, tc.MaxDelay}
		off[tc.To]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	consOf := func(j int) []cons { return cl[off[j]:off[j+1]] }
	loads := norm.Loads(u)
	viol := func(j, at int) int {
		v := 0
		for _, c := range consOf(j) {
			o := u[c.other]
			if d[at][o] > c.dc || d[o][at] > c.dc {
				v++
			}
		}
		return v
	}

	// Incremental conflict bookkeeping: violCount per component, and the
	// conflicted components kept in a slice with a position index so that
	// membership updates and uniform random choice are both O(1).
	violCount := make([]int, n)
	pos := make([]int, n) // position in conflicted, -1 if absent
	conflicted := make([]int, 0, n)
	for j := 0; j < n; j++ {
		pos[j] = -1
		violCount[j] = viol(j, u[j])
	}
	setConflicted := func(j int) {
		inSet := pos[j] >= 0
		want := violCount[j] > 0
		switch {
		case want && !inSet:
			pos[j] = len(conflicted)
			conflicted = append(conflicted, j)
		case !want && inSet:
			last := conflicted[len(conflicted)-1]
			conflicted[pos[j]] = last
			pos[last] = pos[j]
			conflicted = conflicted[:len(conflicted)-1]
			pos[j] = -1
		}
	}
	for j := 0; j < n; j++ {
		setConflicted(j)
	}

	cands := make([]int, 0, m)
	for step := 0; step < maxSteps; step++ {
		if len(conflicted) == 0 {
			return 0
		}
		if ck.Stop() {
			break
		}
		j := conflicted[rng.Intn(len(conflicted))]
		best := violCount[j]
		cands = cands[:0]
		noise := rng.Float64() < 0.08
		for i := 0; i < m; i++ {
			if i == u[j] || loads[i]+norm.Circuit.Sizes[j] > norm.Topology.Capacities[i] {
				continue
			}
			if noise {
				cands = append(cands, i)
				continue
			}
			c := viol(j, i)
			if c < best {
				best = c
				cands = cands[:0]
				cands = append(cands, i)
			} else if c == best {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			continue
		}
		to := cands[rng.Intn(len(cands))]
		from := u[j]
		loads[from] -= norm.Circuit.Sizes[j]
		loads[to] += norm.Circuit.Sizes[j]
		u[j] = to
		// Update violation counts along j's constraints only.
		for _, c := range consOf(j) {
			o := u[c.other]
			was := d[from][o] > c.dc || d[o][from] > c.dc
			is := d[to][o] > c.dc || d[o][to] > c.dc
			if was != is {
				delta := 1
				if was {
					delta = -1
				}
				violCount[j] += delta
				violCount[c.other] += delta
				setConflicted(c.other)
			}
		}
		setConflicted(j)
	}
	total := 0
	for _, v := range violCount {
		total += v
	}
	return total / 2
}

// ConstructiveStart builds a capacity-feasible assignment by sequential
// placement: components are visited in BFS order over the coupling graph
// (highest timing degree first), and each is placed on the
// capacity-feasible partition that minimizes the embedded cost against its
// already-placed partners (timing violations at the penalty, wire cost
// otherwise), with load balance as the tie-breaker. On tightly-constrained
// circuits this seeds the iteration far closer to the feasible region than
// a random start.
func ConstructiveStart(p *model.Problem, penalty int64) (model.Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	norm := p.Normalized()
	s := &solver{
		p:   norm,
		csr: sparsemat.Build(norm.Circuit),
		m:   norm.M(),
		n:   norm.N(),
		b:   norm.Topology.Cost,
		d:   norm.Topology.Delay,
	}
	if penalty <= 0 {
		penalty = DefaultPenalty
	}
	s.penalty = penalty
	s.initKernel()

	// BFS order seeded by decreasing timing degree.
	cs := s.csr
	tdeg := make([]int, s.n)
	for j := 0; j < s.n; j++ {
		lo, hi := cs.Row(j)
		for k := lo; k < hi; k++ {
			if cs.MaxDelay[k] != model.Unconstrained {
				tdeg[j]++
			}
		}
	}
	seedOrder := make([]int, s.n)
	for j := range seedOrder {
		seedOrder[j] = j
	}
	sort.Slice(seedOrder, func(x, y int) bool {
		if tdeg[seedOrder[x]] != tdeg[seedOrder[y]] {
			return tdeg[seedOrder[x]] > tdeg[seedOrder[y]]
		}
		return seedOrder[x] < seedOrder[y]
	})
	order := make([]int, 0, s.n)
	visited := make([]bool, s.n)
	queue := make([]int, 0, s.n)
	for _, seed := range seedOrder {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		//lint:ignore cancel-poll BFS visits each component exactly once (visited guard); bounded by n
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			order = append(order, j)
			lo, hi := cs.Row(j)
			for k := lo; k < hi; k++ {
				o := int(cs.Col[k])
				if !visited[o] {
					visited[o] = true
					queue = append(queue, o)
				}
			}
		}
	}

	u := make([]int, s.n)
	placed := make([]bool, s.n)
	loads := make([]int64, s.m)
	for _, j := range order {
		bestI, bestCost, bestLoad := -1, int64(math.MaxInt64), int64(0)
		for i := 0; i < s.m; i++ {
			if loads[i]+norm.Circuit.Sizes[j] > norm.Topology.Capacities[i] {
				continue
			}
			var cost int64 = norm.LinearAt(i, j)
			lo, hi := cs.Row(j)
			for k := lo; k < hi; k++ {
				o := int(cs.Col[k])
				if !placed[o] {
					continue
				}
				cost += s.pairCost(i, u[o], int(s.class[k]), cs.Weight[k])
			}
			if cost < bestCost || (cost == bestCost && loads[i] < bestLoad) {
				bestI, bestCost, bestLoad = i, cost, loads[i]
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("qbp: constructive start: component %d (size %d) does not fit any partition", j, norm.Circuit.Sizes[j])
		}
		u[j] = bestI
		placed[j] = true
		loads[bestI] += norm.Circuit.Sizes[j]
	}
	return u, nil
}

// randomStart draws a random capacity-feasible assignment: components in
// random order, each placed on a random partition that still fits it. If
// that fails (very tight capacities), it falls back to first-fit decreasing
// onto the partition with the most remaining capacity.
func (s *solver) randomStart(rng *rand.Rand) ([]int, error) {
	u := make([]int, s.n)
	remaining := make([]int64, s.m)
	fits := make([]int, 0, s.m)
	for attempt := 0; attempt < 20; attempt++ {
		copy(remaining, s.p.Topology.Capacities)
		order := rng.Perm(s.n)
		ok := true
		for _, j := range order {
			fits = fits[:0]
			for i := 0; i < s.m; i++ {
				if remaining[i] >= s.p.Circuit.Sizes[j] {
					fits = append(fits, i)
				}
			}
			if len(fits) == 0 {
				ok = false
				break
			}
			i := fits[rng.Intn(len(fits))]
			u[j] = i
			remaining[i] -= s.p.Circuit.Sizes[j]
		}
		if ok {
			return u, nil
		}
	}
	// First-fit decreasing: largest components first, each onto the
	// partition with the most remaining capacity.
	order := make([]int, s.n)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := s.p.Circuit.Sizes[order[a]], s.p.Circuit.Sizes[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	copy(remaining, s.p.Topology.Capacities)
	for _, j := range order {
		bestI := 0
		for i := 1; i < s.m; i++ {
			if remaining[i] > remaining[bestI] {
				bestI = i
			}
		}
		if remaining[bestI] < s.p.Circuit.Sizes[j] {
			return nil, fmt.Errorf("qbp: cannot construct a capacity-feasible start (component %d of size %d does not fit)", j, s.p.Circuit.Sizes[j])
		}
		u[j] = bestI
		remaining[bestI] -= s.p.Circuit.Sizes[j]
	}
	return u, nil
}

// FeasibleStart reproduces the paper's protocol for producing the initial
// feasible solution shared by all methods: "use QBP algorithm with matrix B
// set to all zeros; this will generate an initial feasible solution in a
// few iterations". The quadratic cost disappears and only the embedded
// timing penalties (plus any linear term) drive the search, so the first
// timing-feasible iterate is returned.
func FeasibleStart(ctx context.Context, p *model.Problem, seed int64, maxIterations int) (model.Assignment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if maxIterations <= 0 {
		maxIterations = 30
	}
	zeroB := &model.Topology{
		Capacities: p.Topology.Capacities,
		Cost:       make([][]int64, p.M()),
		Delay:      p.Topology.Delay,
	}
	for i := range zeroB.Cost {
		//lint:ignore alloc-in-hot-loop once-per-call construction of the zero-B topology
		zeroB.Cost[i] = make([]int64, p.M())
	}
	zp := &model.Problem{
		Circuit:  p.Circuit,
		Topology: zeroB,
		Alpha:    p.Alpha,
		Beta:     p.Beta,
		Linear:   p.Linear,
	}
	ck := interrupt.New(ctx, 0)
	// Fast path: constraint-aware constructive placement plus min-conflicts
	// repair clears real circuits in milliseconds to seconds.
	if u, err := ConstructiveStart(zp, 0); err == nil {
		for attempt := 0; attempt < 3; attempt++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			w := append(model.Assignment(nil), u...)
			//lint:ignore alloc-in-hot-loop once-per-start repair attempt, at most three per FeasibleStart call
			if left := minConflicts(zp, w, seed+int64(attempt)*7919, 100*zp.N(), &ck); left == 0 {
				return w, nil
			}
		}
	}
	// Otherwise run the QBP(B=0) iteration from a few starts, each followed
	// by a min-conflicts pass on its best iterate.
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		res, err := Solve(ctx, zp, Options{
			Iterations:     maxIterations,
			Seed:           seed + int64(attempt)*1000003,
			StopOnFeasible: true,
		})
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		if res.Feasible {
			return res.Assignment, nil
		}
		if res.Stopped {
			break // deadline hit mid-attempt: no feasible start to return
		}
		u := res.Assignment
		//lint:ignore alloc-in-hot-loop once-per-start repair attempt, at most eight per FeasibleStart call
		if left := minConflicts(zp, u, seed+int64(attempt), 30*zp.N(), &ck); left == 0 {
			return u, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, errors.New("qbp: could not reach a timing-feasible start (instance may be infeasible)")
}
