// Package gap solves the (min-cost) Generalized Assignment Problem: assign
// each of N items, item j with size s_j, to one of M bins with capacities
// c_i, minimizing Σ cost[i][j], subject to every bin's total assigned size
// staying within its capacity.
//
// This is the subproblem the generalized Burkard heuristic solves in STEP 4
// and STEP 6 of the paper's §4.3 (where the solution space S is the set of
// capacity-feasible assignments rather than permutations). The constructor
// is the Martello–Toth MTHG regret heuristic (ref [12] of the paper),
// followed by shift and swap local refinement; an exact branch-and-bound
// solver is provided for cross-checking on small instances.
//
// The solver core is generic over the cost element type and runs on an
// item-major flat cost layout (all bins of one item contiguous, the access
// pattern of every inner loop here). Callers on the hot path hand costs in
// directly via FlatCosts (int64, the all-integral QBP subproblems) or
// FlatCosts64 (float64); the classic bin-major Costs matrix remains
// supported and is transposed into a scratch buffer per call. For costs
// whose values are integers exactly representable in float64, the int64 and
// float64 paths make identical decisions.
package gap

import (
	"context"
	"errors"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/interrupt"
	"repro/internal/qmatrix"
)

// Instance is a minimization GAP. Exactly one cost representation must be
// set: Costs, FlatCosts or FlatCosts64.
type Instance struct {
	Costs [][]float64 // M×N: Costs[i][j] = cost of placing item j in bin i
	// FlatCosts is an optional item-major flat integer cost matrix:
	// FlatCosts[qmatrix.Pack(i, j, M)] (= i + j·M) is the cost of placing
	// item j in bin i. When set it takes precedence over the other
	// representations and the solve runs entirely in int64 — no float64
	// round-trip.
	FlatCosts []int64
	// FlatCosts64 is the float64 analogue of FlatCosts, for subproblems
	// with fractional costs (the heuristic's STEP 6 direction vector).
	// Used when FlatCosts is nil; takes precedence over Costs.
	FlatCosts64 []float64
	Sizes       []int64 // N item sizes, > 0
	Capacities  []int64 // M bin capacities, ≥ 0
}

// M returns the number of bins.
func (in *Instance) M() int { return len(in.Capacities) }

// N returns the number of items.
func (in *Instance) N() int { return len(in.Sizes) }

// Validate checks matrix shapes and sign invariants.
func (in *Instance) Validate() error {
	m, n := in.M(), in.N()
	if m == 0 {
		return errors.New("gap: no bins")
	}
	switch {
	case in.FlatCosts != nil:
		if len(in.FlatCosts) != m*n {
			return errors.New("gap: flat cost matrix length != M·N")
		}
	case in.FlatCosts64 != nil:
		if len(in.FlatCosts64) != m*n {
			return errors.New("gap: flat cost matrix length != M·N")
		}
		for _, c := range in.FlatCosts64 {
			if math.IsNaN(c) {
				return errors.New("gap: NaN cost")
			}
		}
	default:
		if len(in.Costs) != m {
			return errors.New("gap: cost matrix row count != M")
		}
		for _, row := range in.Costs {
			if len(row) != n {
				return errors.New("gap: cost matrix column count != N")
			}
			for _, c := range row {
				if math.IsNaN(c) {
					return errors.New("gap: NaN cost")
				}
			}
		}
	}
	for _, s := range in.Sizes {
		if s <= 0 {
			return errors.New("gap: non-positive item size")
		}
	}
	for _, c := range in.Capacities {
		if c < 0 {
			return errors.New("gap: negative capacity")
		}
	}
	return nil
}

// Cost returns the total cost of a complete assignment under whichever cost
// representation is set.
func (in *Instance) Cost(assign []int) float64 {
	m := in.M()
	switch {
	case in.FlatCosts != nil:
		var t int64
		for j, i := range assign {
			t += in.FlatCosts[qmatrix.Pack(i, j, m)]
		}
		return float64(t)
	case in.FlatCosts64 != nil:
		var t float64
		for j, i := range assign {
			t += in.FlatCosts64[qmatrix.Pack(i, j, m)]
		}
		return t
	default:
		var t float64
		for j, i := range assign {
			t += in.Costs[i][j]
		}
		return t
	}
}

// Feasible reports whether assign respects all bin capacities.
func (in *Instance) Feasible(assign []int) bool {
	loads := make([]int64, in.M())
	for j, i := range assign {
		if i < 0 || i >= in.M() {
			return false
		}
		loads[i] += in.Sizes[j]
	}
	for i, l := range loads {
		if l > in.Capacities[i] {
			return false
		}
	}
	return true
}

// RefineLevel selects how much local improvement follows the constructor.
type RefineLevel int

const (
	// RefineNone returns the raw MTHG construction.
	RefineNone RefineLevel = iota
	// RefineShift repeatedly relocates single items to cheaper feasible
	// bins until no move improves.
	RefineShift
	// RefineSwap additionally exchanges item pairs between bins; costlier
	// (O(N²) per pass) but stronger.
	RefineSwap
)

// Options tunes Solve.
type Options struct {
	Refine          RefineLevel
	MaxRefinePasses int // ≤ 0 means a safe default
}

// number is the cost element constraint of the generic solver core.
type number interface{ ~int64 | ~float64 }

// view is the solver's internal window onto an instance: item-major flat
// costs plus the size/capacity vectors.
type view[T number] struct {
	flat  []T
	m     int
	sizes []int64
	caps  []int64
}

// col returns the contiguous cost column of item j (one entry per bin).
func (v *view[T]) col(j int) []T { return v.flat[j*v.m : (j+1)*v.m] }

func (v *view[T]) n() int { return len(v.sizes) }

func (v *view[T]) cost(assign []int) T {
	var t T
	for j, i := range assign {
		t += v.col(j)[i]
	}
	return t
}

// Solve runs MTHG plus refinement. It returns the assignment (assign[j] =
// bin), its cost, and whether it is capacity-feasible. On pathological
// instances where the constructor dead-ends and repair fails, the returned
// assignment may be infeasible (ok = false); callers that require
// feasibility must check.
//
// Cancellation: the constructor always runs to completion (its result is
// what makes the assignment valid at all); a cancelled ctx skips or cuts
// short the refinement sweeps, so the caller still gets a feasible — just
// less polished — assignment back promptly.
func Solve(ctx context.Context, in *Instance, opt Options) (assign []int, cost float64, ok bool) {
	ck := interrupt.New(ctx, 0)
	switch {
	case in.FlatCosts != nil:
		v := &view[int64]{flat: in.FlatCosts, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		a, c, ok := solve(v, opt, &ck)
		return a, float64(c), ok
	case in.FlatCosts64 != nil:
		v := &view[float64]{flat: in.FlatCosts64, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solve(v, opt, &ck)
	default:
		v := &view[float64]{flat: transpose(in.Costs, in.N()), m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solve(v, opt, &ck)
	}
}

// transpose flattens a bin-major matrix into the item-major layout.
func transpose(costs [][]float64, n int) []float64 {
	m := len(costs)
	flat := make([]float64, m*n)
	for i, row := range costs {
		for j, c := range row {
			flat[qmatrix.Pack(i, j, m)] = c
		}
	}
	return flat
}

func solve[T number](v *view[T], opt Options, ck *interrupt.Checker) (assign []int, cost T, ok bool) {
	assign, ok = construct(v)
	if ok {
		refine(v, assign, opt, ck)
	}
	return assign, v.cost(assign), ok
}

// regretItem is a heap entry: the cached best/second-best feasible bins of
// an unassigned item. The ordering keys are held as float64 regardless of
// the cost element type; integer costs below 2⁵³ convert exactly, so the
// int64 path orders identically to the float64 path.
type regretItem struct {
	j            int
	best, second int     // bin indices; -1 when absent
	bestC        float64 // cost at best
	regret       float64 // second-best − best (+Inf when only one bin fits)
}

// regretHeap is a max-regret priority queue over regretItem values. Its
// sift-up and sift-down are container/heap's, step for step, on the typed
// slice: no entry is boxed into an interface. Keeping the same algorithm
// keeps the same pop sequence even when less is not a strict weak order —
// a NaN regret (two ±Inf costs of one sign) compares neither before nor
// after anything, and a different heap algorithm could order such pops
// differently.
type regretHeap []regretItem

func (h regretHeap) less(a, b int) bool {
	// Max-heap on regret; ties broken by cheaper best cost for determinism.
	// Exact float comparison is deliberate in both guards: a comparator must
	// stay transitive, and an epsilon here would break the heap invariant.
	//lint:ignore float-equality ordering tie-break, not a value comparison
	if h[a].regret != h[b].regret {
		return h[a].regret > h[b].regret
	}
	//lint:ignore float-equality ordering tie-break, not a value comparison
	if h[a].bestC != h[b].bestC {
		return h[a].bestC < h[b].bestC
	}
	return h[a].j < h[b].j
}

// init establishes the heap order (container/heap.Init).
func (h regretHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// push adds it (container/heap.Push).
func (h *regretHeap) push(it regretItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop removes and returns the top entry (container/heap.Pop).
func (h *regretHeap) pop() regretItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

// up sifts entry j toward the root; at most log₂ n steps.
func (h regretHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts entry i toward the leaves of the first n entries; at most
// log₂ n steps.
func (h regretHeap) down(i, n int) {
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		if c2 := c + 1; c2 < n && h.less(c2, c) {
			c = c2 // right child
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// score computes the best/second-best feasible bins of item j given the
// remaining capacities. ok is false when no bin fits.
func score[T number](v *view[T], j int, remaining []int64) (it regretItem, ok bool) {
	it = regretItem{j: j, best: -1, second: -1}
	sz := v.sizes[j]
	col := v.col(j)
	var bestC, secondC T
	for i := range v.caps {
		if remaining[i] < sz {
			continue
		}
		c := col[i]
		switch {
		case it.best < 0 || c < bestC:
			it.second, secondC = it.best, bestC
			it.best, bestC = i, c
		case it.second < 0 || c < secondC:
			it.second, secondC = i, c
		}
	}
	if it.best < 0 {
		return it, false
	}
	it.bestC = float64(bestC)
	if it.second < 0 {
		it.regret = math.Inf(1)
	} else {
		it.regret = float64(secondC) - float64(bestC)
	}
	return it, true
}

// construct is the MTHG regret constructor with lazy cache revalidation:
// since capacities only shrink, a cached (best, second) stays valid as long
// as both bins still fit the item.
func construct[T number](v *view[T]) (assign []int, ok bool) {
	n := v.n()
	assign = make([]int, n)
	for j := range assign {
		assign[j] = -1
	}
	remaining := append([]int64(nil), v.caps...)

	h := make(regretHeap, 0, n)
	for j := 0; j < n; j++ {
		it, fits := score(v, j, remaining)
		if !fits {
			return repair(v, assign, remaining, j)
		}
		h = append(h, it)
	}
	h.init()

	// Bounded drain: every pop either assigns an item for good or
	// revalidates one stale cache entry, and entries only go stale when a
	// capacity shrank — at most n shrinks, so the loop is O(n²) worst case
	// and terminates with the instance.
	//lint:ignore cancel-poll heap drain is bounded by n assignments plus one revalidation per capacity shrink
	for len(h) > 0 {
		it := h.pop()
		if assign[it.j] >= 0 {
			continue
		}
		sz := v.sizes[it.j]
		stale := remaining[it.best] < sz ||
			(it.second >= 0 && remaining[it.second] < sz)
		if stale {
			fresh, fits := score(v, it.j, remaining)
			if !fits {
				// Repair completes the whole assignment, so no restart
				// of the constructor is needed.
				return repair(v, assign, remaining, it.j)
			}
			h.push(fresh)
			continue
		}
		assign[it.j] = it.best
		remaining[it.best] -= sz
	}
	return assign, true
}

// repair finishes a construction that dead-ended: the stuck item (and any
// other still-unassigned items) are forced into the bin with the largest
// remaining capacity, then overloaded bins are relieved by cheapest-penalty
// shifts. Returns ok = false when overloads cannot be eliminated.
func repair[T number](v *view[T], assign []int, remaining []int64, stuck int) ([]int, bool) {
	m := v.m
	force := func(j int) {
		best := 0
		for i := 1; i < m; i++ {
			if remaining[i] > remaining[best] {
				best = i
			}
		}
		assign[j] = best
		remaining[best] -= v.sizes[j]
	}
	force(stuck)
	for j := range assign {
		if assign[j] < 0 {
			// Prefer a feasible bin if one exists; force otherwise.
			if it, fits := score(v, j, remaining); fits {
				assign[j] = it.best
				remaining[it.best] -= v.sizes[j]
			} else {
				force(j)
			}
		}
	}
	// Relieve overloads: repeatedly move the item whose relocation costs
	// least from an overloaded bin to a bin with slack.
	for iter := 0; iter < len(assign)*m+m; iter++ {
		over := -1
		for i := 0; i < m; i++ {
			if remaining[i] < 0 {
				over = i
				break
			}
		}
		if over < 0 {
			return assign, true
		}
		bestJ, bestI := -1, -1
		bestPenalty := math.Inf(1)
		for j, i := range assign {
			if i != over {
				continue
			}
			sz := v.sizes[j]
			col := v.col(j)
			for i2 := 0; i2 < m; i2++ {
				if i2 == over || remaining[i2] < sz {
					continue
				}
				pen := float64(col[i2] - col[over])
				if pen < bestPenalty {
					bestPenalty, bestJ, bestI = pen, j, i2
				}
			}
		}
		if bestJ < 0 {
			return assign, false
		}
		assign[bestJ] = bestI
		remaining[over] += v.sizes[bestJ]
		remaining[bestI] -= v.sizes[bestJ]
	}
	return assign, false
}

// refine applies shift (and optionally swap) local search in place. Checks
// ck at sweep boundaries: every sweep leaves the assignment and the
// remaining-capacity vector consistent, so stopping between sweeps is safe.
func refine[T number](v *view[T], assign []int, opt Options, ck *interrupt.Checker) {
	passes := opt.MaxRefinePasses
	if passes <= 0 {
		passes = 50
	}
	if opt.Refine == RefineNone {
		return
	}
	r := newRefiner(v, assign)
	// MaxRefinePasses caps only the expensive sweeps (swap, eject as a last
	// resort): each outer pass first drains all shift moves.
	for pass := 0; pass < passes; pass++ {
		if ck.Now() {
			return
		}
		for k := 0; k < 200; k++ {
			if !r.shiftSweep() || ck.Now() {
				break
			}
		}
		if opt.Refine < RefineSwap || ck.Now() {
			return
		}
		improved := r.swapSweep()
		// Ejection is the expensive last resort: only scan for depth-2
		// chains once shifts and swaps have dried up.
		if !improved && r.eject() {
			improved = true
		}
		if !improved {
			return
		}
	}
}

// refiner is the working state of one refine call, allocated once per call.
type refiner[T number] struct {
	v         *view[T]
	assign    []int
	remaining []int64
	// members indexes assign by bin. The swap sweep rebuilds it on entry
	// (shift sweeps do not maintain it) and keeps it exact through its
	// swaps; eject, which only runs right after a swap sweep, reuses it.
	members *bitset.Membership
	// low[b·M+a] is a lower bound on col(j)[a] − col(j)[b] over the items j
	// in bin b: exact at the start of each swap sweep, then lowered (never
	// raised) as items arrive in b, so departures leave it stale-low.
	low  []T
	open []int // the bins the current j1 may still improve against
	// skip is the threshold above which a bin's lower bound proves that no
	// pair with it passes the improvement test (delta < −1e-12): −1e-12
	// plus a rounding slack of 2⁻⁴⁶·max|c|, or +∞ (nothing is skipped)
	// when max|c| ≥ 2⁶¹.
	skip float64
	// evict[i] is a lower bound on the eviction delta
	// float64(col(k)[b] − col(k)[i]) over the items k in bin i and the
	// bins b ≠ i, capacity ignored: exact at the start of each eject call,
	// then lowered (never raised) as items arrive in i, so departures
	// leave it stale-low.
	evict []float64
}

func newRefiner[T number](v *view[T], assign []int) *refiner[T] {
	m := v.m
	r := &refiner[T]{
		v:         v,
		assign:    assign,
		remaining: append([]int64(nil), v.caps...),
		members:   bitset.NewMembership(m, v.n()),
		low:       make([]T, m*m),
		open:      make([]int, 0, m),
		evict:     make([]float64, m),
	}
	for j, i := range assign {
		r.remaining[i] -= v.sizes[j]
	}
	// A NaN cost sticks in maxAbs (nothing compares above it), so it
	// selects the +∞ threshold like a cost of 2⁶¹ or more.
	var maxAbs float64
	for _, c := range v.flat {
		if a := math.Abs(float64(c)); a > maxAbs || math.IsNaN(a) {
			maxAbs = a
		}
	}
	r.skip = math.Inf(1)
	if maxAbs < 0x1p61 {
		r.skip = -1e-12 + maxAbs*0x1p-46
	}
	return r
}

// shiftSweep is one sweep of single-item relocations; cheap (O(N·M)), so it
// always runs to convergence inside each outer pass.
func (r *refiner[T]) shiftSweep() bool {
	v, assign, remaining := r.v, r.assign, r.remaining
	improved := false
	for j := 0; j < v.n(); j++ {
		cur := assign[j]
		sz := v.sizes[j]
		col := v.col(j)
		bestI, bestC := cur, col[cur]
		for i := 0; i < v.m; i++ {
			if i == cur || remaining[i] < sz {
				continue
			}
			if c := col[i]; c < bestC {
				bestI, bestC = i, c
			}
		}
		if bestI != cur {
			assign[j] = bestI
			remaining[cur] += sz
			remaining[bestI] -= sz
			improved = true
		}
	}
	return improved
}

// lowRow returns the bounds of bin b's items against every target bin.
func (r *refiner[T]) lowRow(b int) []T { return r.low[b*r.v.m : (b+1)*r.v.m] }

// arrive lowers bin b's bounds by item j's cost differences.
func (r *refiner[T]) arrive(j, b int) {
	col, low := r.v.col(j), r.lowRow(b)
	for a, c := range col {
		low[a] = min(low[a], c-col[b])
	}
}

// openBins collects the bins b ≠ a whose bound leaves room for an item in
// a, with cost column col1, to improve by swapping with one of b's items:
// a pair's delta is col1[b] − col1[a] + (col2[a] − col2[b]), and the
// bracket is at least low[b·M+a].
func (r *refiner[T]) openBins(a int, col1 []T) {
	r.open = r.open[:0]
	for b := 0; b < r.v.m; b++ {
		if b != a && !(float64(col1[b]-col1[a]+r.lowRow(b)[a]) > r.skip) {
			r.open = append(r.open, b)
		}
	}
}

// swapSweep is one sweep of pairwise exchanges in ascending (j1, j2) order,
// each applied as soon as it improves. For each j1 it visits only the items
// of the bins openBins leaves open, in ascending j2 through their
// membership words, and runs the exact test on each; the skipped items
// cannot pass it, so the sweep applies the same swaps in the same order as
// the plain O(N²) pair loop.
func (r *refiner[T]) swapSweep() bool {
	v, assign, remaining := r.v, r.assign, r.remaining
	n := v.n()
	r.members.Build(assign)
	for b := 0; b < v.m; b++ {
		low := r.lowRow(b)
		if j := r.members.Part(b).NextSet(0); j < n {
			col := v.col(j)
			for a, c := range col {
				low[a] = c - col[b]
			}
		} else {
			clear(low) // any value bounds an empty bin; arrivals lower it
		}
	}
	for j, b := range assign {
		r.arrive(j, b)
	}
	improved := false
	nw := len(r.members.Part(0).Words())
	for j1 := 0; j1 < n; j1++ {
		i1 := assign[j1]
		s1 := v.sizes[j1]
		col1 := v.col(j1)
		r.openBins(i1, col1)
		for w := (j1 + 1) >> 6; w < nw && len(r.open) > 0; w++ {
			for word := r.openWord(w, j1+1); word != 0; {
				j2 := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				i2 := assign[j2]
				s2 := v.sizes[j2]
				col2 := v.col(j2)
				if remaining[i1]+s1 < s2 || remaining[i2]+s2 < s1 ||
					!(float64(col1[i2]+col2[i1]-col1[i1]-col2[i2]) < -1e-12) { // NaN fails too
					continue
				}
				assign[j1], assign[j2] = i2, i1
				remaining[i1] += s1 - s2
				remaining[i2] += s2 - s1
				r.members.Move(j1, i1, i2)
				r.members.Move(j2, i2, i1)
				r.arrive(j1, i2)
				r.arrive(j2, i1)
				i1 = i2
				r.openBins(i1, col1)
				word = r.openWord(w, j2+1)
				improved = true
			}
		}
	}
	return improved
}

// openWord returns membership word w of the open bins, masked to the items
// ≥ from.
func (r *refiner[T]) openWord(w, from int) uint64 {
	var word uint64
	for _, b := range r.open {
		word |= r.members.Part(b).Words()[w]
	}
	if lo := w << 6; from > lo {
		word &= ^uint64(0) << uint(from-lo) // a shift of 64 clears the word
	}
	return word
}

// evictArrive lowers bin i's eviction bound by item k's deltas. A NaN
// delta is never selected by the scan and never lowers the bound.
func (r *refiner[T]) evictArrive(k, i int) {
	col := r.v.col(k)
	for b, c := range col {
		if d := float64(c - col[i]); b != i && d < r.evict[i] {
			r.evict[i] = d
		}
	}
}

// eject performs depth-2 shifts: move item j into bin i after evicting one
// item k from i to a third bin, when the combined cost delta is negative.
// This escapes local optima that single shifts and pairwise swaps cannot
// (three-way rotations). Returns whether any move was applied. It runs
// right after a swap sweep and reuses that sweep's membership index.
//
// A full bin i is scanned only when gain0 + evict[i] could pass the
// improvement test: the scan's best delta is one of the very values the
// bound minimizes, float addition is monotone, so gain0 + bestDelta ≥
// gain0 + evict[i] and a skipped bin could not have applied a chain. A
// NaN or ±Inf sum skips only bins where the scan would apply nothing.
func (r *refiner[T]) eject() bool {
	v, assign, remaining, members := r.v, r.assign, r.remaining, r.members
	m, n := v.m, v.n()
	for i := range r.evict {
		r.evict[i] = math.Inf(1) // exact for an empty bin
	}
	for k, i := range assign {
		r.evictArrive(k, i)
	}
	moved := false
	for j := 0; j < n; j++ {
		s := assign[j]
		sj := v.sizes[j]
		colJ := v.col(j)
		for i := 0; i < m; i++ {
			if i == s {
				continue
			}
			gain0 := float64(colJ[i] - colJ[s])
			if remaining[i] >= sj {
				continue // plain shift handles this case
			}
			if !(gain0+r.evict[i] < -1e-12) {
				continue // no eviction from i is cheap enough
			}
			// Find the cheapest eviction k: i → b that makes room. The
			// membership bitset iterates bin i ascending — the identical
			// candidate order the sorted member lists used to produce.
			bestDelta := math.Inf(1)
			bestK, bestB := -1, -1
			bin := members.Part(i)
			for k := bin.NextSet(0); k < n; k = bin.NextSet(k + 1) {
				sk := v.sizes[k]
				if remaining[i]+sk < sj {
					continue
				}
				colK := v.col(k)
				for b := 0; b < m; b++ {
					room := remaining[b]
					if b == s {
						room += sj // j will have left s by the time k arrives
					}
					if b == i || room < sk {
						continue
					}
					d := float64(colK[b] - colK[i])
					if d < bestDelta {
						bestDelta, bestK, bestB = d, k, b
					}
				}
			}
			if bestK >= 0 && gain0+bestDelta < -1e-12 {
				// Apply: k out of i, j into i.
				remaining[i] += v.sizes[bestK]
				remaining[bestB] -= v.sizes[bestK]
				assign[bestK] = bestB
				remaining[s] += sj
				remaining[i] -= sj
				assign[j] = i
				// Two O(1) bit moves keep the membership index exact; the
				// old sorted-slice lists paid a shifted copy per move.
				members.Move(bestK, i, bestB)
				members.Move(j, s, i)
				r.evictArrive(bestK, bestB)
				r.evictArrive(j, i)
				moved = true
				break
			}
		}
	}
	return moved
}

// SolveExact finds the optimal assignment by depth-first branch and bound
// with a per-item best-cost lower bound. Intended for small instances
// (N ≲ 14) in tests. Returns ok = false when no feasible assignment exists.
// A ctx cancelled mid-search aborts the remaining tree and returns the
// incumbent found so far (ok = false when none was reached yet) — the
// result is then a feasible upper bound, not a proven optimum.
func SolveExact(ctx context.Context, in *Instance) (assign []int, cost float64, ok bool) {
	ck := interrupt.New(ctx, 4096)
	switch {
	case in.FlatCosts != nil:
		v := &view[int64]{flat: in.FlatCosts, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solveExact(v, &ck)
	case in.FlatCosts64 != nil:
		v := &view[float64]{flat: in.FlatCosts64, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solveExact(v, &ck)
	default:
		v := &view[float64]{flat: transpose(in.Costs, in.N()), m: in.M(), sizes: in.Sizes, caps: in.Capacities}
		return solveExact(v, &ck)
	}
}

// solveExact accumulates bounds and costs in float64 for both element
// types: the float64 path reproduces the historical arithmetic exactly, and
// integral costs below 2⁵³ stay exact under the conversion. The dfs polls
// ck once per amortization window (node-count granularity), so the search
// core stays branch-cheap.
func solveExact[T number](v *view[T], ck *interrupt.Checker) (assign []int, cost float64, ok bool) {
	m, n := v.m, v.n()
	// Branch on items in decreasing size for earlier capacity pruning.
	order := make([]int, n)
	for j := range order {
		order[j] = j
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if v.sizes[order[b]] > v.sizes[order[a]] {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	// Lower bound suffix in branch order: lb[j] = Σ_{k ≥ j} min_i cost of
	// item order[k] (capacity ignored).
	lb := make([]float64, n+1)
	for j := n - 1; j >= 0; j-- {
		best := math.Inf(1)
		col := v.col(order[j])
		for i := 0; i < m; i++ {
			if c := float64(col[i]); c < best {
				best = c
			}
		}
		lb[j] = lb[j+1] + best
	}

	bestCost := math.Inf(1)
	var bestAssign []int
	cur := make([]int, n)
	remaining := append([]int64(nil), v.caps...)
	var dfs func(depth int, acc float64)
	dfs = func(depth int, acc float64) {
		if ck.Stop() {
			return
		}
		if acc+lb[depth] >= bestCost {
			return
		}
		if depth == n {
			bestCost = acc
			bestAssign = append([]int(nil), cur...)
			return
		}
		j := order[depth]
		sz := v.sizes[j]
		col := v.col(j)
		for i := 0; i < m; i++ {
			if remaining[i] < sz {
				continue
			}
			cur[j] = i
			remaining[i] -= sz
			dfs(depth+1, acc+float64(col[i]))
			remaining[i] += sz
		}
	}
	dfs(0, 0)
	if bestAssign == nil {
		return nil, 0, false
	}
	return bestAssign, bestCost, true
}
