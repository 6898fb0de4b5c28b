package qbp

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/flatmat"
	"repro/internal/model"
	"repro/internal/qmatrix"
	"repro/internal/sparsemat"
)

// This file holds the flat performance kernels under the solve loop: the
// per-delay-class effective-row cache (flatmat.Kernel), the CSR coupling
// matrix (sparsemat), the flat item-major η/h vectors, and the incremental
// η maintenance. All flat vectors use the qmatrix.Pack layout — entry
// (partition i, component j) lives at Pack(i, j, m) = i + j·m, so the
// per-component column is the contiguous subslice [j·m, (j+1)·m). That is
// exactly the access pattern of the GAP subproblems, so STEP 4 hands the η
// vector to gap.Solve with no copy and no float64 round-trip.

// initKernel builds the flat solve state from the solver's topology and
// coupling graph: the per-arc delay classes, the per-(delay-class,
// partition) effective rows, and the flat linear-cost mirror. Must run
// after s.penalty and s.relax are final.
func (s *solver) initKernel() {
	bm := flatmat.FromRows(s.b)
	dm := flatmat.FromRows(s.d)
	if s.relax {
		// Timing relaxed: every arc behaves as unconstrained, so no
		// penalty rows are needed at all.
		s.class = make([]int32, s.csr.NNZ())
		for k := range s.class {
			s.class[k] = flatmat.UnconstrainedClass
		}
		s.kern = flatmat.NewKernel(bm, dm, nil, 0)
	} else {
		var bounds []int64
		bounds, s.class = delayClasses(s.csr)
		s.kern = flatmat.NewKernel(bm, dm, bounds, s.penalty)
	}
	if s.p.Linear != nil {
		s.linFlat = make([]int64, s.m*s.n)
		for j := 0; j < s.n; j++ {
			for i := 0; i < s.m; i++ {
				s.linFlat[qmatrix.Pack(i, j, s.m)] = s.p.LinearAt(i, j)
			}
		}
	}
}

// delayClasses returns the sorted distinct finite MaxDelay values of the
// coupling graph ("delay classes") and, aligned with its arcs, the class of
// every arc (flatmat.UnconstrainedClass for arcs without a timing bound).
// The flat kernels precompute one effective cost row per (class, partition)
// pair, which is only economical because real circuits carry a handful of
// distinct bounds.
func delayClasses(cs *sparsemat.CSR) (bounds []int64, class []int32) {
	for _, md := range cs.MaxDelay {
		if md != model.Unconstrained {
			bounds = append(bounds, md)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	class = make([]int32, len(cs.MaxDelay))
	for k, md := range cs.MaxDelay {
		class[k] = flatmat.UnconstrainedClass
		if md != model.Unconstrained {
			c, _ := slices.BinarySearch(bounds, md)
			class[k] = int32(c)
		}
	}
	return bounds, class
}

// scratch is the solver-owned reusable buffer set. One scratch serves many
// sequential solves of same-shape problems (the multi-start workers each
// own one), eliminating the per-call and per-iteration allocations of the
// solve loop's hot helpers.
type scratch struct {
	m, n int

	etaI     []int64 // flat η, item-major
	h        []float64
	etaU     []int // assignment etaI currently reflects
	etaValid bool

	loads []int64
	fits  []int
	prev  []int
	wbuf  []int

	// Bit-packed marker sets of the incremental-η path: moved is built by
	// refreshEta's diff (and consumed by etaIncremental's word-skip walks),
	// colDirty collects the distinct dirty columns branch-free, dirtyCols
	// is the extracted ascending index list the update walks.
	moved     *bitset.Set
	colDirty  *bitset.Set
	dirtyCols []int

	// seen dedups the violated-endpoint collection of kick.
	seen *bitset.Set

	// mrow is the M-length move row polishPass evaluates each component's
	// targets from (moveRow).
	mrow []int64
}

func newScratch(m, n int) *scratch {
	return &scratch{
		m:         m,
		n:         n,
		etaI:      make([]int64, m*n),
		h:         make([]float64, m*n),
		etaU:      make([]int, n),
		loads:     make([]int64, m),
		fits:      make([]int, 0, m),
		prev:      make([]int, n),
		wbuf:      make([]int, n),
		moved:     bitset.New(n),
		colDirty:  bitset.New(n),
		dirtyCols: make([]int, 0, n),
		seen:      bitset.New(n),
		mrow:      make([]int64, m),
	}
}

// etaCol returns component j's contiguous η column.
func etaCol(etaI []int64, j, m int) []int64 { return etaI[j*m : (j+1)*m] }

// refreshEta brings sc.etaI in sync with assignment u and returns it. The
// first call per solve computes η in full; later calls diff u against the
// assignment the buffer reflects and only rebuild the η columns of the
// moved components' neighbors. Both paths are exact int64 arithmetic, so
// they agree bit for bit — the incremental path is purely a cost saving
// proportional to how much of the iterate actually moved.
func (s *solver) refreshEta(u []int, withOmega bool) []int64 {
	sc := s.sc
	if !sc.etaValid {
		s.etaFull(sc.etaI, u, withOmega)
		s.stats.EtaFull++
		copy(sc.etaU, u)
		sc.etaValid = true
		return sc.etaI
	}
	// The diff both counts the moved components and packs them into the
	// moved bitset, so the incremental path below walks them word-skip
	// without a second O(N) scan.
	nm := 0
	moved := sc.moved
	moved.Reset()
	for j := range u {
		if u[j] != sc.etaU[j] {
			moved.Set(j)
			nm++
		}
	}
	switch {
	case nm == 0:
		return sc.etaI
	case nm*3 > s.n:
		// Most of the iterate moved (a GAP jump or a kick): a full rebuild
		// touches less memory than diffing nearly every column.
		s.etaFull(sc.etaI, u, withOmega)
		s.stats.EtaFull++
	default:
		s.etaIncremental(sc.etaU, u, withOmega)
		s.stats.EtaIncremental++
	}
	copy(sc.etaU, u)
	return sc.etaI
}

// etaFull computes η from scratch: for every component column, the sum of
// the partners' effective rows, plus the flat linear diagonal and
// (optionally) the ω term at the current slot.
func (s *solver) etaFull(etaI []int64, u []int, withOmega bool) {
	m := s.m
	for j2 := 0; j2 < s.n; j2++ {
		col := etaCol(etaI, j2, m)
		for r := range col {
			col[r] = 0
		}
		s.accumColCSR(col, u, j2)
		if s.linFlat != nil {
			lcol := etaCol(s.linFlat, j2, m)
			lcol = lcol[:len(col)]
			for r := range col {
				col[r] += lcol[r]
			}
		}
		if withOmega {
			cur := u[j2]
			col[cur] += s.omega[qmatrix.Pack(cur, j2, m)]
		}
	}
}

// accumColCSR adds the effective rows of component j2's partners into col:
// one fused length-M pass per stored arc, O(deg(j2)·M) total. The row loops
// stay inline — an accumulate call per arc costs more than the whole
// length-M fused add at realistic M.
func (s *solver) accumColCSR(col []int64, u []int, j2 int) {
	cs := s.csr
	lo, hi := cs.Row(j2)
	for k := lo; k < hi; k++ {
		c := s.class[k]
		w := cs.Weight[k]
		if c == flatmat.UnconstrainedClass {
			if w == 0 {
				continue
			}
			row := s.kern.BRow(u[cs.Col[k]])
			row = row[:len(col)]
			for r := range col {
				col[r] += w * row[r]
			}
		} else {
			mask, pen := s.kern.ClassRows(int(c), u[cs.Col[k]])
			mask = mask[:len(col)]
			pen = pen[:len(col)]
			for r := range col {
				col[r] += w*mask[r] + pen[r]
			}
		}
	}
}

// moveRow fills row with the penalized cost of component j at every
// partition against its partners' slots in u: row[to] is j's linear term at
// to plus, per stored arc, the both-direction pair cost q̂(to,o) + q̂(o,to).
// One CSR walk and one fused length-M pass per arc (the shape of
// accumColCSR), so the exact yᵀQ̂y change of moving j from cur to to is
// row[to] − row[cur] for every target at once. The pair rows make each arc
// term w·PairMask + PairPen, which wraps mod 2⁶⁴ exactly like the sum of
// the two per-direction entries, so the difference equals the per-pair
// evaluation bit for bit.
func (s *solver) moveRow(row []int64, u []int, j int) {
	if s.linFlat != nil {
		copy(row, etaCol(s.linFlat, j, s.m))
	} else {
		clear(row)
	}
	cs := s.csr
	lo, hi := cs.Row(j)
	for k := lo; k < hi; k++ {
		c := s.class[k]
		w := cs.Weight[k]
		o := u[cs.Col[k]]
		if c == flatmat.UnconstrainedClass {
			if w == 0 {
				continue
			}
			pb := s.kern.PairBRow(o)
			pb = pb[:len(row)]
			for r := range row {
				row[r] += w * pb[r]
			}
		} else {
			mask, pen := s.kern.PairClassRows(int(c), o)
			mask = mask[:len(row)]
			pen = pen[:len(row)]
			for r := range row {
				row[r] += w*mask[r] + pen[r]
			}
		}
	}
}

// etaIncremental updates sc.etaI from oldU to newU: only the columns with at
// least one moved partner are touched, each by subtracting the partner's
// old effective row and adding the new one. The moved set must already be
// packed in sc.moved (refreshEta's diff does it); the dirty-column set is
// discovered from the CSR rows of the moved components — O(Σdeg(moved))
// branch-free bit ORs — and extracted in ascending column order. Old and
// new contributions cancel exactly in int64, so the fused (new − old) pass
// per moved partner is bit-identical to a subtract-then-add pair.
func (s *solver) etaIncremental(oldU, newU []int, withOmega bool) {
	m := s.m
	sc := s.sc
	etaI := sc.etaI
	moved := sc.moved
	dirty := sc.colDirty
	cs := s.csr
	for j := moved.NextSet(0); j < s.n; j = moved.NextSet(j + 1) {
		lo, hi := cs.Row(j)
		for k := lo; k < hi; k++ {
			dirty.Set(int(cs.Col[k]))
		}
	}
	cols := dirty.AppendIndices(sc.dirtyCols[:0])
	sc.dirtyCols = cols
	for _, o := range cols {
		s.updateColCSR(etaCol(etaI, o, m), oldU, newU, o)
	}
	if withOmega {
		for j := moved.NextSet(0); j < s.n; j = moved.NextSet(j + 1) {
			col := etaCol(etaI, j, m)
			col[oldU[j]] -= s.omega[qmatrix.Pack(oldU[j], j, m)]
			col[newU[j]] += s.omega[qmatrix.Pack(newU[j], j, m)]
		}
	}
	dirty.Reset()
}

// updateColCSR swaps the moved partners' effective rows in col, walking only
// the stored arcs of column o: O(deg(o)·M) worst case, typically far less
// since only moved partners pay the row pass.
func (s *solver) updateColCSR(col []int64, oldU, newU []int, o int) {
	moved := s.sc.moved
	cs := s.csr
	lo, hi := cs.Row(o)
	for k := lo; k < hi; k++ {
		j := int(cs.Col[k])
		if !moved.Test(j) {
			continue
		}
		s.swapPartnerRow(col, int(s.class[k]), cs.Weight[k], oldU[j], newU[j])
	}
}

// swapPartnerRow applies one partner relocation from partition from to
// partition to onto col: the fused (new − old) effective-row pass.
func (s *solver) swapPartnerRow(col []int64, c int, w int64, from, to int) {
	if c == flatmat.UnconstrainedClass {
		if w == 0 {
			return
		}
		oldRow := s.kern.BRow(from)
		newRow := s.kern.BRow(to)
		oldRow = oldRow[:len(col)]
		newRow = newRow[:len(col)]
		for r := range col {
			col[r] += w * (newRow[r] - oldRow[r])
		}
	} else {
		om, op := s.kern.ClassRows(c, from)
		nm, np := s.kern.ClassRows(c, to)
		om = om[:len(col)]
		op = op[:len(col)]
		nm = nm[:len(col)]
		np = np[:len(col)]
		for r := range col {
			col[r] += w*(nm[r]-om[r]) + np[r] - op[r]
		}
	}
}

// accumulateH folds the current η into the direction vector h (STEP 5):
// h[r] += float64(η[r]) / denom. The division stays per-entry: multiplying
// by a precomputed reciprocal would change last-ulp rounding and break
// bit-compatibility with the float64 reference implementation.
func accumulateH(h []float64, etaI []int64, denom float64) {
	for r := range h {
		h[r] += float64(etaI[r]) / denom
	}
}
