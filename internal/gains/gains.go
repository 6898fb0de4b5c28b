// Package gains maintains an incremental move-delta table over a working
// assignment: for every component j and target partition t it tracks the
// exact objective change of moving j to t, updating only the affected rows
// after each move or swap. It also answers capacity (C1) and timing (C2)
// admissibility queries. Both interchange baselines of the paper's §5 — GFM
// (single moves, M−1 gain entries per component) and GKL (pair swaps) — are
// built on this table.
//
// All deltas are in objective units of the normalized PP(1,1) problem:
// the quadratic term counts each wire in both directions
// (w·(b[i1][i2]+b[i2][i1])), plus the linear term.
package gains

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/sparsemat"
)

// Table is the incremental state. Create with New; mutate only through
// Apply and ApplySwap. SwapDelta writes to the table's pinned-row cache, so
// a Table must not be shared between goroutines, not even for reads.
type Table struct {
	p     *model.Problem     // normalized PP(1,1)
	csr   *sparsemat.CSR     // coupling graph of p, shared read-only
	m     int                // number of partitions
	bp    []int64            // bp[x·M+y] = b[x][y] + b[y][x], symmetric in x, y
	u     []int              // current assignment
	loads []int64            // per-partition load
	memb  *bitset.Membership // per-partition membership bitsets over u
	delta [][]int64          // delta[j][t] = objective change of moving j to t
	obj   int64              // current objective, maintained incrementally
	shift []int64            // move's length-M scratch: bp(to,x) − bp(s,x)
	// The pinned row: wire[k] = w(pinned, k) for every partner k of the
	// component SwapDelta last saw as j1, zero elsewhere (−1: none yet).
	pinned int
	wire   []int64
}

// New builds a table over a copy of the initial assignment. The problem is
// normalized internally, and csr must be the coupling graph of the
// normalized problem (sparsemat.Build); the table reads it and never
// writes it. initial must be a complete in-range assignment.
func New(p *model.Problem, csr *sparsemat.CSR, initial model.Assignment) (*Table, error) {
	p = p.Normalized()
	if len(initial) != p.N() || !initial.Valid(p.M()) {
		return nil, fmt.Errorf("gains: initial assignment invalid (len %d, want %d complete in-range entries)", len(initial), p.N())
	}
	m := p.M()
	t := &Table{
		p:      p,
		csr:    csr,
		m:      m,
		bp:     make([]int64, m*m),
		u:      append([]int(nil), initial...),
		loads:  p.Loads(initial),
		memb:   bitset.NewMembership(m, p.N()),
		delta:  make([][]int64, p.N()),
		obj:    p.Objective(initial),
		shift:  make([]int64, m),
		pinned: -1,
		wire:   make([]int64, p.N()),
	}
	b := p.Topology.Cost
	for x := 0; x < m; x++ {
		row := t.bpRow(x)
		for y := range row {
			row[y] = b[x][y] + b[y][x]
		}
	}
	t.memb.Build(t.u)
	for j := range t.delta {
		t.delta[j] = make([]int64, m)
		t.recompute(j)
	}
	return t, nil
}

// Assignment returns a copy of the current assignment.
func (t *Table) Assignment() model.Assignment {
	return append(model.Assignment(nil), t.u...)
}

// Partition returns the current partition of component j.
func (t *Table) Partition(j int) int { return t.u[j] }

// Objective returns the current objective value.
func (t *Table) Objective() int64 { return t.obj }

// Load returns the current load of partition i.
func (t *Table) Load(i int) int64 { return t.loads[i] }

// Size returns the number of components currently in partition i — one
// popcount over the packed membership words, not an O(N) assignment scan.
func (t *Table) Size(i int) int { return t.memb.Count(i) }

// Members returns partition i's membership bitset (bit j ⇔ Partition(j)
// == i), maintained incrementally by Apply/ApplySwap. Callers use it for
// word-skip partner scans (e.g. GKL's "every unlocked pair in different
// partitions") and must not mutate it.
func (t *Table) Members(i int) *bitset.Set { return t.memb.Part(i) }

// Delta returns the objective change of moving component j to partition to
// (0 when to is j's current partition).
func (t *Table) Delta(j, to int) int64 { return t.delta[j][to] }

// DeltaRow returns component j's full gain row (length M, indexed by
// target partition) — the backing array, valid until the next Apply or
// ApplySwap and not to be mutated. Selection scans that compare all M
// alternatives use it to pay the row indirection once per component
// instead of once per (component, partition) probe.
func (t *Table) DeltaRow(j int) []int64 { return t.delta[j] }

// Boundary overwrites dst (capacity ≥ N) with the current boundary set:
// bit j ⇔ some wire of j crosses partitions under the current assignment.
// Interior components can still carry nonzero deltas (linear preferences,
// same-partition diagonal couplings), so boundary restriction is a search
// heuristic, not an exact filter — the multi-level uncoarsening pass uses
// it to confine refinement to the projection seams.
func (t *Table) Boundary(dst *bitset.Set) {
	dst.Reset()
	cs := t.csr
	for j := 0; j < t.p.N(); j++ {
		lo, hi := cs.Row(j)
		for k := lo; k < hi; k++ {
			if cs.Weight[k] != 0 && t.u[cs.Col[k]] != t.u[j] {
				dst.Set(j)
				break
			}
		}
	}
}

// bpRow returns bp(x, ·), the both-direction cost coupling of partition x
// with every partition; by symmetry it is also bp(·, x).
func (t *Table) bpRow(x int) []int64 { return t.bp[x*t.m : (x+1)*t.m] }

// recompute rebuilds row j of the delta table from scratch:
// delta[j][to] = lin(to,j) − lin(s,j) + Σ_arcs w·(bp(to,i2) − bp(s,i2)),
// which is exactly 0 at to = s.
func (t *Table) recompute(j int) {
	s := t.u[j]
	row := t.delta[j]
	for to := range row {
		row[to] = t.p.LinearAt(to, j) - t.p.LinearAt(s, j)
	}
	cs := t.csr
	lo, hi := cs.Row(j)
	for k := lo; k < hi; k++ {
		w := cs.Weight[k]
		if w == 0 {
			continue // timing-only arc: no cost coupling
		}
		i2 := t.u[cs.Col[k]]
		bp := t.bpRow(i2)
		base := w * bp[s]
		for to := range row {
			row[to] += w*bp[to] - base
		}
	}
}

// move relocates j to partition to and shifts the row of every wire
// neighbor n (in partition sn) by the one arc term that changed:
// delta[n][x] += w·(bp(x,to) − bp(x,s) − bp(sn,to) + bp(sn,s)). That is
// O(M) per neighbor instead of a rebuild over its whole CSR row, and the
// arithmetic is int64, so the shifted row equals the rebuilt one exactly
// (both are the same sum modulo 2⁶⁴). j's own row is left stale for the
// caller to recompute.
func (t *Table) move(j, to int) {
	s := t.u[j]
	sz := t.p.Circuit.Sizes[j]
	t.loads[s] -= sz
	t.loads[to] += sz
	t.u[j] = to
	t.memb.Move(j, s, to)
	d := t.shift
	bpTo, bpS := t.bpRow(to), t.bpRow(s)
	for x := range d {
		d[x] = bpTo[x] - bpS[x]
	}
	cs := t.csr
	lo, hi := cs.Row(j)
	for k := lo; k < hi; k++ {
		w := cs.Weight[k]
		if w == 0 {
			continue // timing-only neighbors have no cost coupling
		}
		n := int(cs.Col[k])
		row := t.delta[n]
		base := d[t.u[n]]
		for x := range row {
			row[x] += w * (d[x] - base)
		}
	}
}

// CapacityOK reports whether moving j to partition to keeps C1.
func (t *Table) CapacityOK(j, to int) bool {
	if to == t.u[j] {
		return true
	}
	return t.loads[to]+t.p.Circuit.Sizes[j] <= t.p.Topology.Capacities[to]
}

// TimingOK reports whether component j placed on partition to satisfies
// every timing constraint against the current positions of its partners
// (both delay directions, matching the symmetric constraint reading).
func (t *Table) TimingOK(j, to int) bool {
	d := t.p.Topology.Delay
	cs := t.csr
	lo, hi := cs.Row(j)
	for k := lo; k < hi; k++ {
		md := cs.MaxDelay[k]
		if md == model.Unconstrained {
			continue
		}
		o := t.u[cs.Col[k]]
		if d[to][o] > md || d[o][to] > md {
			return false
		}
	}
	return true
}

// MoveOK reports whether moving j to partition to keeps both C1 and C2.
func (t *Table) MoveOK(j, to int) bool {
	return t.CapacityOK(j, to) && t.TimingOK(j, to)
}

// Apply moves component j to partition to, updating the objective, the
// loads and the affected delta rows. It does not check admissibility.
func (t *Table) Apply(j, to int) {
	if t.u[j] == to {
		return
	}
	t.obj += t.delta[j][to]
	t.move(j, to)
	t.recompute(j)
}

// SwapDelta returns the objective change of exchanging the partitions of j1
// and j2. Per Kernighan–Lin, the direct coupling between the pair must be
// corrected: the two single-move deltas each assume the partner stays put,
// double-counting the shared wire, so 2·w·bp(s1,s2) is added back (the wire
// between them keeps its length under a swap).
//
// The pair weight w(j1,j2) is read in O(1) from the pinned row: j1's CSR
// row scattered into an N-length scratch, re-pinned (clearing the previous
// j1's entries) only when j1 changes. Scans that fix j1 in their outer loop
// pay the scatter once per j1.
func (t *Table) SwapDelta(j1, j2 int) int64 {
	s1, s2 := t.u[j1], t.u[j2]
	if s1 == s2 {
		return 0
	}
	if t.pinned != j1 {
		t.pin(j1)
	}
	d := t.delta[j1][s2] + t.delta[j2][s1]
	if w := t.wire[j2]; w != 0 {
		d += 2 * w * t.bpRow(s1)[s2]
	}
	return d
}

// pin scatters j's wire weights into the pinned row, first clearing the
// entries of the previously pinned component.
func (t *Table) pin(j int) {
	cs := t.csr
	if t.pinned >= 0 {
		lo, hi := cs.Row(t.pinned)
		for k := lo; k < hi; k++ {
			t.wire[cs.Col[k]] = 0
		}
	}
	lo, hi := cs.Row(j)
	for k := lo; k < hi; k++ {
		t.wire[cs.Col[k]] = cs.Weight[k]
	}
	t.pinned = j
}

// SwapCapacityOK reports whether exchanging j1 and j2 keeps C1.
func (t *Table) SwapCapacityOK(j1, j2 int) bool {
	s1, s2 := t.u[j1], t.u[j2]
	if s1 == s2 {
		return true
	}
	sz1, sz2 := t.p.Circuit.Sizes[j1], t.p.Circuit.Sizes[j2]
	return t.loads[s1]-sz1+sz2 <= t.p.Topology.Capacities[s1] &&
		t.loads[s2]-sz2+sz1 <= t.p.Topology.Capacities[s2]
}

// SwapTimingOK reports whether exchanging j1 and j2 keeps C2, accounting
// for both components moving simultaneously.
func (t *Table) SwapTimingOK(j1, j2 int) bool {
	s1, s2 := t.u[j1], t.u[j2]
	if s1 == s2 {
		return true
	}
	d := t.p.Topology.Delay
	cs := t.csr
	check := func(j, to, partner, partnerTo int) bool {
		lo, hi := cs.Row(j)
		for k := lo; k < hi; k++ {
			md := cs.MaxDelay[k]
			if md == model.Unconstrained {
				continue
			}
			other := int(cs.Col[k])
			o := t.u[other]
			if other == partner {
				o = partnerTo
			}
			if d[to][o] > md || d[o][to] > md {
				return false
			}
		}
		return true
	}
	return check(j1, s2, j2, s1) && check(j2, s1, j1, s2)
}

// SwapOK reports whether exchanging j1 and j2 keeps both C1 and C2.
func (t *Table) SwapOK(j1, j2 int) bool {
	return t.SwapCapacityOK(j1, j2) && t.SwapTimingOK(j1, j2)
}

// ApplySwap exchanges the partitions of j1 and j2, updating the objective,
// loads and affected delta rows. It does not check admissibility.
func (t *Table) ApplySwap(j1, j2 int) {
	s1, s2 := t.u[j1], t.u[j2]
	if s1 == s2 {
		return
	}
	t.obj += t.SwapDelta(j1, j2)
	t.move(j1, s2)
	t.move(j2, s1)
	t.recompute(j1)
	t.recompute(j2)
}
