package multilevel

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fm"
	"repro/internal/interrupt"
	"repro/internal/kl"
	"repro/internal/model"
	"repro/internal/qbp"
	"repro/internal/sparsemat"
	"repro/internal/validate"
)

// Defaults for Options; see the field comments.
const (
	DefaultCoarsenTarget = 2048
	DefaultMaxLevels     = 64
	DefaultRefinePasses  = 2
	DefaultGFMMaxN       = 4096
	DefaultGKLMaxN       = 512
)

// Options tunes Solve and Coarsen.
type Options struct {
	// Coarse configures the flat QBP multistart solve of the coarsest
	// level. Base.RelaxTiming governs the whole V-cycle (matching guards,
	// refinement admissibility), Base.Seed drives every seeded choice, and
	// Workers is the only concurrency knob — coarsening and refinement are
	// strictly serial, so fixed-seed results are bit-identical for every
	// Workers value, exactly like the flat solver. Base.Initial is honored
	// only when the problem needs no coarsening (the identity path, where
	// Solve degenerates to the flat multistart solve); coarser levels
	// derive their own cluster-based seed.
	Coarse qbp.MultiStartOptions
	// CoarsenTarget stops coarsening once a level has at most this many
	// components — the size handed to the flat solver; ≤ 0 means
	// DefaultCoarsenTarget.
	CoarsenTarget int
	// MaxLevels bounds the hierarchy depth; ≤ 0 means DefaultMaxLevels.
	MaxLevels int
	// RefinePasses bounds the per-level refinement passes during
	// uncoarsening; ≤ 0 means DefaultRefinePasses.
	RefinePasses int
	// GFMMaxN is the largest level refined with the GFM/GKL gain-table
	// refiners (boundary-restricted); larger levels use the greedy
	// boundary sweep. ≤ 0 means DefaultGFMMaxN.
	GFMMaxN int
	// GKLMaxN is the largest level additionally polished with GKL swap
	// passes (O(N²) selection — keep small); ≤ 0 means DefaultGKLMaxN.
	GKLMaxN int
	// OnLevel, when set, observes each level as the uncoarsening pass
	// finishes it (coarsest first).
	OnLevel func(LevelStat)
}

func (o *Options) coarsenTarget() int {
	if o.CoarsenTarget <= 0 {
		return DefaultCoarsenTarget
	}
	return o.CoarsenTarget
}

// LevelStat describes one hierarchy level in a Result.
type LevelStat struct {
	Level int // 0 = finest (the input problem)
	N     int // components at this level
	Pairs int // distinct coupled component pairs (merged arcs)
	Moves int // refinement moves applied during uncoarsening
}

// Result is the outcome of a V-cycle solve. Objective, WireLength and
// Feasible are computed on the input problem — the hierarchy is exact, so
// they equal the per-level accounting, but they are recomputed at the
// finest level so the numbers a caller sees never depend on the hierarchy
// being correct.
type Result struct {
	Assignment model.Assignment
	Objective  int64 // α·linear + β·quadratic on the input problem
	WireLength int64
	Feasible   bool
	// Stopped reports the V-cycle was cut short by ctx cancellation: the
	// coarse solve returned its incumbent and/or later refinement was
	// skipped, and the assignment is the best-so-far projected to the
	// finest level.
	Stopped bool
	Levels  []LevelStat // finest first
	Coarse  *qbp.Result // the coarsest-level flat solve
}

// Hierarchy is a contraction hierarchy over a (normalized) problem:
// levels[0] is the finest graph, maps[k] sends a level-k component to its
// level-k+1 cluster. Build with Coarsen; Solve uses one internally.
type Hierarchy struct {
	norm   *model.Problem
	levels []*level
	maps   [][]int32
	stats  []LevelStat
}

type level struct {
	g   *graph
	lin [][]int64 // folded linear matrix, nil ⇒ zero
}

// Levels returns the number of levels (≥ 1; 1 means no coarsening).
func (h *Hierarchy) Levels() int { return len(h.levels) }

// LevelSize returns the component count of level k.
func (h *Hierarchy) LevelSize(k int) int { return h.levels[k].g.N }

// Problem materializes level k as a flat PP(1,1) instance over the
// original topology. Level 0 is the input problem with parallel wires
// merged and parallel budgets tightened — the same aggregation every solver
// applies internally.
func (h *Hierarchy) Problem(k int) (*model.Problem, error) {
	lvl := h.levels[k]
	name := fmt.Sprintf("%s/L%d", h.norm.Circuit.Name, k)
	return lvl.g.problem(name, h.norm.Topology, lvl.lin)
}

// Project maps a level-k assignment down to the finest level: every fine
// component inherits its cluster's partition. The hierarchy invariants
// (DESIGN.md §15) make this exact — the level-k objective of a equals the
// finest-level objective of the projection, and feasibility carries over.
func (h *Hierarchy) Project(k int, a model.Assignment) model.Assignment {
	cur := append([]int(nil), a...)
	for l := k; l > 0; l-- {
		cl := h.maps[l-1]
		fine := make([]int, h.levels[l-1].g.N)
		for j := range fine {
			fine[j] = cur[cl[j]]
		}
		cur = fine
	}
	return cur
}

// Coarsen builds the contraction hierarchy for p: deterministic heavy-edge
// matching level by level until the top level has at most
// opts.CoarsenTarget components, matching stalls (a level shrinks by less
// than 5%), or opts.MaxLevels is reached. The input problem is normalized
// to PP(1,1) first; every level is validated with the reusable
// timing-budget check before it joins the hierarchy.
func Coarsen(p *model.Problem, opts Options) (*Hierarchy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	norm := p.Normalized()
	if err := validate.CheckBudgets(norm.N(), norm.Circuit.Timing); err != nil {
		return nil, err
	}
	g0 := &graph{CSR: sparsemat.Build(norm.Circuit), sizes: norm.Circuit.Sizes}
	h := &Hierarchy{
		norm:   norm,
		levels: []*level{{g: g0, lin: norm.Linear}},
		stats:  []LevelStat{{Level: 0, N: g0.N, Pairs: g0.NNZ() / 2}},
	}

	target := opts.coarsenTarget()
	maxLevels := opts.MaxLevels
	if maxLevels <= 0 {
		maxLevels = DefaultMaxLevels
	}
	relax := opts.Coarse.Base.RelaxTiming
	topo := norm.Topology
	maxDiag := maxDiagDelay(topo.Delay)
	needIntra := false
	for i := range topo.Cost {
		if topo.Cost[i][i] != 0 {
			needIntra = true
			break
		}
	}
	var maxCap int64
	for _, c := range topo.Capacities {
		if c > maxCap {
			maxCap = c
		}
	}
	total := norm.Circuit.TotalSize()

	for len(h.levels) < maxLevels {
		top := h.levels[len(h.levels)-1]
		if top.g.N <= target {
			break
		}
		// Clusters must stay placeable: cap merged size at 3/2 of the
		// average coarse-component size at the target, and never above the
		// largest partition.
		limit := (3 * total) / (2 * int64(target))
		if limit > maxCap {
			limit = maxCap
		}
		if limit < 1 {
			limit = 1
		}
		cl, nc := heavyEdgeMatch(top.g, limit, maxDiag, relax)
		if nc > top.g.N-top.g.N/20 {
			break // matching stalled; a deeper hierarchy would not shrink
		}
		cg, intra, err := top.g.contract(cl, nc, maxDiag, relax, needIntra)
		if err != nil {
			return nil, err
		}
		for _, md := range cg.MaxDelay {
			if md != model.Unconstrained && md < 0 {
				return nil, fmt.Errorf("multilevel: contraction produced a negative timing budget %d at level %d", md, len(h.levels))
			}
		}
		h.maps = append(h.maps, cl)
		h.levels = append(h.levels, &level{g: cg, lin: foldLinear(top.lin, cl, nc, intra, topo.Cost)})
		h.stats = append(h.stats, LevelStat{Level: len(h.levels) - 1, N: cg.N, Pairs: cg.NNZ() / 2})
	}
	return h, nil
}

// Solve runs the V-cycle: Coarsen, solve the coarsest level with the flat
// QBP multistart, then uncoarsen — projecting the assignment down one level
// at a time and re-polishing each level with boundary-restricted GFM/GKL
// (small levels) or the greedy boundary sweep (large levels).
//
// The standing solver contracts hold: a ctx already cancelled at entry
// returns ctx.Err(); cancellation mid-solve returns the best-so-far
// assignment projected to the finest level with Result.Stopped set; a ctx
// that never fires leaves the result bit-identical to an uncancelled run;
// and fixed-seed results are bit-identical for every Coarse.Workers value.
func Solve(ctx context.Context, p *model.Problem, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := Coarsen(p, opts)
	if err != nil {
		return nil, err
	}
	norm := h.norm
	relax := opts.Coarse.Base.RelaxTiming
	stats := append([]LevelStat(nil), h.stats...)

	// Coarsest level: materialize and hand to the flat solver. With no
	// coarser levels this IS the flat solve (the identity path); otherwise
	// a ratio-cut cluster seed replaces any caller-supplied initial, which
	// is indexed on the finest level and meaningless here.
	L := len(h.levels)
	coarseP, err := h.Problem(L - 1)
	if err != nil {
		return nil, err
	}
	if err := validate.CheckBudgets(coarseP.N(), coarseP.Circuit.Timing); err != nil {
		return nil, err
	}
	co := opts.Coarse
	if L > 1 {
		co.Base.Initial = clusterSeed(coarseP)
	}
	cr, err := qbp.SolveMultiStart(ctx, coarseP, co)
	if err != nil {
		return nil, err
	}
	stopped := cr.Stopped
	cur := append([]int(nil), cr.Assignment...)
	if !cr.Feasible && !relax && L > 1 {
		// Deterministic tail-repair of residual timing violations before
		// committing the coarse solution to the descent (capacity is
		// preserved by construction).
		qbp.MinConflicts(coarseP, cur, co.Base.Seed, 20*coarseP.N())
	}

	// Uncoarsen: refine each level below the coarsest after projecting the
	// assignment onto it.
	ck := interrupt.New(ctx, 0)
	passes := opts.RefinePasses
	if passes <= 0 {
		passes = DefaultRefinePasses
	}
	gfmMaxN := opts.GFMMaxN
	if gfmMaxN <= 0 {
		gfmMaxN = DefaultGFMMaxN
	}
	gklMaxN := opts.GKLMaxN
	if gklMaxN <= 0 {
		gklMaxN = DefaultGKLMaxN
	}
	//lint:ignore cancel-poll bounded by the level count; must run to completion to project best-so-far down, and refineLevel polls internally
	for k := L - 1; ; k-- {
		if k < L-1 {
			moves, s, rerr := refineLevel(ctx, &ck, h, k, cur, passes, gfmMaxN, gklMaxN, relax, co.Base.Seed)
			if rerr != nil {
				return nil, rerr
			}
			stats[k].Moves = moves
			stopped = stopped || s
		}
		if opts.OnLevel != nil {
			opts.OnLevel(stats[k])
		}
		if k == 0 {
			break
		}
		cl := h.maps[k-1]
		fine := make([]int, h.levels[k-1].g.N)
		for j := range fine {
			fine[j] = cur[cl[j]]
		}
		cur = fine
	}

	a := model.Assignment(cur)
	return &Result{
		Assignment: a,
		Objective:  norm.Objective(a),
		WireLength: norm.WireLength(a),
		Feasible:   norm.Feasible(a),
		Stopped:    stopped || ctx.Err() != nil,
		Levels:     stats,
		Coarse:     cr,
	}, nil
}

// refineLevel polishes the assignment cur (mutated in place or replaced
// via copy — the caller passes a slice it owns) at hierarchy level k.
// Returns the move count and whether refinement was cut short.
func refineLevel(ctx context.Context, ck *interrupt.Checker, h *Hierarchy, k int, cur []int, passes, gfmMaxN, gklMaxN int, relax bool, seed int64) (int, bool, error) {
	if ck.Now() {
		return 0, true, nil // cancelled: keep projecting, skip polish
	}
	lvl := h.levels[k]
	topo := h.norm.Topology
	n := lvl.g.N
	timingOK := relax || lvl.g.timingFeasibleOn(cur, topo.Delay)
	if !timingOK {
		// Projection is exact, so these violations came down from the
		// coarser levels (min-merged budgets can over-tighten a coarse
		// problem into infeasibility) — and this level has strictly more
		// freedom to fix them. Repair before polishing: the deterministic
		// greedy sweep first, then the seeded min-conflicts tail-cleaner on
		// a timing-only view of the level (capacity-preserving, and
		// MinConflicts never reads the wires, so the cheap materialization
		// is exact for it).
		loads := make([]int64, len(topo.Capacities))
		for j, i := range cur {
			loads[i] += lvl.g.sizes[j]
		}
		timingOK = repairSweep(ck, lvl.g, lvl.lin, topo, cur, loads) == 0
		if !timingOK && !ck.Stopped() {
			if tp, err := lvl.g.timingOnlyProblem(topo); err == nil {
				timingOK = qbp.MinConflicts(tp, cur, seed, 30*n) == 0
			}
		}
	}
	if n > gfmMaxN || !timingOK {
		// Large level, or residual violations the gain-table refiners
		// refuse: the greedy sweep improves without ever adding a
		// violation.
		loads := make([]int64, len(topo.Capacities))
		for j, i := range cur {
			loads[i] += lvl.g.sizes[j]
		}
		moves := sweepRefine(ck, lvl.g, lvl.lin, topo, cur, loads, passes, relax)
		return moves, ck.Stopped(), nil
	}
	lp, err := h.Problem(k)
	if err != nil {
		return 0, false, err
	}
	moves := 0
	fr, err := fm.Solve(ctx, lp, cur, fm.Options{MaxPasses: passes, RelaxTiming: relax, BoundaryOnly: true})
	if err != nil {
		if ctx.Err() != nil {
			return 0, true, nil
		}
		return 0, false, err
	}
	copy(cur, fr.Assignment)
	moves += fr.Moves
	if fr.Stopped {
		return moves, true, nil
	}
	if n <= gklMaxN {
		kr, err := kl.Solve(ctx, lp, cur, kl.Options{MaxPasses: passes, RelaxTiming: relax, BoundaryOnly: true})
		if err != nil {
			if ctx.Err() != nil {
				return moves, true, nil
			}
			return moves, false, err
		}
		copy(cur, kr.Assignment)
		moves += kr.Swaps
		if kr.Stopped {
			return moves, true, nil
		}
	}
	return moves, false, nil
}

// clusterSeed derives a capacity-feasible initial assignment for the
// coarsest level from its natural ratio-cut clusters (the paper's "first
// type" of partitioning as a seed for the second). Returns nil when
// clustering or placement fails — the flat solver then falls back to its
// seeded random start.
func clusterSeed(p *model.Problem) model.Assignment {
	cls, err := cluster.Clusters(p.Circuit, p.M(), cluster.Options{})
	if err != nil {
		return nil
	}
	a, err := cluster.SeedAssignment(p, cls)
	if err != nil {
		return nil
	}
	return a
}
