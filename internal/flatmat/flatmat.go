// Package flatmat provides the flat performance kernels under the QBP
// solve path: row-major flat []int64 mirrors of the topology cost/delay
// matrices, and a precomputed per-delay-class "effective row" cache that
// turns the Q̂ entry of one arc into a branch-free multiply-add.
//
// The paper's §4.3 enhancement enumerates Q̂'s nonzeros from sparse arc
// lists; the inner accumulation for one arc seen from component j2 with its
// partner on partition i1 is, over target partitions i2,
//
//	q̂(i1,i2) = penalty            if d[i1][i2] > D_C(arc)
//	         = weight · b[i1][i2] otherwise.
//
// The branch depends only on (D_C bound, i1, i2) — not on the arc's weight —
// and real circuits carry a handful of distinct finite D_C values ("delay
// classes"). Kernel therefore precomputes, per (class, i1), two length-M
// rows:
//
//	MaskB[i2]  = b[i1][i2] where the pair is feasible, 0 where violating
//	PenAdd[i2] = 0 where feasible, penalty where violating
//
// so the effective row is weight·MaskB + PenAdd: a bound-check-free fused
// loop over contiguous memory, the shape the η accumulation (STEP 3)
// reduces to.
//
// A move evaluator needs both directions of an arc at once: relocating
// component j against a partner on partition o changes q̂(to,o) + q̂(o,to).
// Kernel therefore also holds symmetrized *pair rows*, per (class, o),
//
//	PairMask[to] = MaskB(to)[o] + MaskB(o)[to]
//	PairPen[to]  = PenAdd(to)[o] + PenAdd(o)[to]
//
// (b[to][o] + b[o][to] for unconstrained arcs), so the both-direction cost
// of one arc over every target is again one fused weight·PairMask + PairPen
// pass. int64 arithmetic wraps mod 2⁶⁴, where w·(a+b) = w·a + w·b, so this
// equals the sum of the two Entry values bit for bit even when a penalty
// near the int64 range overflows.
package flatmat

// Matrix is a row-major flat int64 matrix. Rows are contiguous length-Stride
// slices; use Row to address them without ad-hoc index arithmetic.
type Matrix struct {
	Stride int
	V      []int64
}

// FromRows flattens a rectangular row-of-pointers matrix. An empty input
// yields a zero Matrix.
func FromRows(rows [][]int64) Matrix {
	if len(rows) == 0 {
		return Matrix{}
	}
	stride := len(rows[0])
	m := Matrix{Stride: stride, V: make([]int64, len(rows)*stride)}
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// Rows returns the number of rows.
func (m Matrix) Rows() int {
	if m.Stride == 0 {
		return 0
	}
	return len(m.V) / m.Stride
}

// Row returns row i as a contiguous subslice. Callers guarantee
// 0 <= i < Rows(); the runtime slice check backs that contract.
func (m Matrix) Row(i int) []int64 {
	//lint:ignore flat-bounds caller contract 0 <= i < Rows() is not visible locally
	return m.V[i*m.Stride : (i+1)*m.Stride]
}

// At returns entry (i, j).
func (m Matrix) At(i, j int) int64 { return m.Row(i)[j] }

// UnconstrainedClass is the Kernel class of arcs without a (finite) timing
// bound: their effective row is weight·b[i1] with no penalty additions.
const UnconstrainedClass = -1

// Kernel is the per-(delay-class, partner-partition) effective-row cache.
// Build one per (topology, penalty) pair; it is immutable afterwards and
// safe for concurrent use.
type Kernel struct {
	m       int
	penalty int64
	b       Matrix
	// maskB and penAdd hold classes×M rows of length M each; the row for
	// (class c, partition i1) starts at rowStart(c, i1).
	maskB  Matrix
	penAdd Matrix
	// pairB (M rows) and pairMask/pairPen (classes×M rows) are the
	// symmetrized pair rows; the row for (class c, partner partition o)
	// starts at rowStart(c, o) like the effective rows.
	pairB    Matrix
	pairMask Matrix
	pairPen  Matrix
}

// NewKernel precomputes the effective rows for every delay class in
// delayBounds (the sorted distinct finite D_C values of the coupling graph)
// against the M×M cost matrix b and delay matrix d. A zero penalty (the
// relaxed/Table II configuration) still zeroes MaskB outside the feasible
// region, matching the embedded Q̂ whose violating entries are *set* to the
// penalty rather than added to.
func NewKernel(b, d Matrix, delayBounds []int64, penalty int64) *Kernel {
	m := b.Rows()
	k := &Kernel{m: m, penalty: penalty, b: b}
	rows := len(delayBounds) * m
	k.maskB = Matrix{Stride: m, V: make([]int64, rows*m)}
	k.penAdd = Matrix{Stride: m, V: make([]int64, rows*m)}
	for c, bound := range delayBounds {
		for i1 := 0; i1 < m; i1++ {
			mask := k.maskB.Row(c*m + i1)
			pen := k.penAdd.Row(c*m + i1)
			brow := b.Row(i1)
			drow := d.Row(i1)
			for i2 := 0; i2 < m; i2++ {
				if drow[i2] > bound {
					pen[i2] = penalty
				} else {
					mask[i2] = brow[i2]
				}
			}
		}
	}
	k.pairB = symmetrize(b, m)
	k.pairMask = symmetrize(k.maskB, m)
	k.pairPen = symmetrize(k.penAdd, m)
	return k
}

// symmetrize returns the pair rows of a stack of M×M blocks: in each block,
// row o of the result is column o plus row o of the input.
func symmetrize(src Matrix, m int) Matrix {
	dst := Matrix{Stride: m, V: make([]int64, len(src.V))}
	for base := 0; base < src.Rows(); base += m {
		for o := 0; o < m; o++ {
			row := dst.Row(base + o)
			srow := src.Row(base + o)
			for to := range row {
				row[to] = src.At(base+to, o) + srow[to]
			}
		}
	}
	return dst
}

// M returns the partition count the kernel was built for.
func (k *Kernel) M() int { return k.m }

// Rows returns the effective-row pair of (class, i1): mask is b's row i1
// restricted to timing-feasible targets, pen the penalty additions. For
// UnconstrainedClass pen is nil and mask is the plain b row.
func (k *Kernel) Rows(class, i1 int) (mask, pen []int64) {
	if class == UnconstrainedClass {
		return k.b.Row(i1), nil
	}
	return k.ClassRows(class, i1)
}

// BRow returns the plain cost row of partition i1 (the effective row of
// unconstrained arcs). Small enough to inline into per-arc loops.
func (k *Kernel) BRow(i1 int) []int64 { return k.b.Row(i1) }

// ClassRows returns the (mask, pen) pair of a finite delay class without
// the unconstrained-class branch of Rows. Small enough to inline.
func (k *Kernel) ClassRows(class, i1 int) (mask, pen []int64) {
	return k.maskB.Row(class*k.m + i1), k.penAdd.Row(class*k.m + i1)
}

// PairBRow returns the pair row of unconstrained arcs against a partner on
// partition o: b[to][o] + b[o][to] over targets to.
func (k *Kernel) PairBRow(o int) []int64 { return k.pairB.Row(o) }

// PairClassRows returns the (mask, pen) pair rows of a finite delay class
// against a partner on partition o, so that w·mask[to] + pen[to] equals
// Entry(class, to, o, w) + Entry(class, o, to, w). Small enough to inline.
func (k *Kernel) PairClassRows(class, o int) (mask, pen []int64) {
	return k.pairMask.Row(class*k.m + o), k.pairPen.Row(class*k.m + o)
}

// Entry returns the single Q̂ entry of an arc with weight w in delay class
// class for the ordered partition pair (i1, i2). Direct flat indexing so
// the call inlines into per-arc evaluation loops.
func (k *Kernel) Entry(class, i1, i2 int, w int64) int64 {
	if class == UnconstrainedClass {
		//lint:ignore flat-bounds caller contract 0 <= i1,i2 < M is not visible locally
		return w * k.b.V[i1*k.b.Stride+i2]
	}
	r := (class*k.m + i1) * k.m
	//lint:ignore flat-bounds caller contract 0 <= class < classes, 0 <= i1,i2 < M is not visible locally
	return w*k.maskB.V[r+i2] + k.penAdd.V[r+i2]
}

// AddInto accumulates the effective row of (class, i1) scaled by w into dst:
// dst[i2] += w·MaskB[i2] + PenAdd[i2]. len(dst) must be M.
func (k *Kernel) AddInto(dst []int64, w int64, class, i1 int) {
	mask, pen := k.Rows(class, i1)
	dst = dst[:len(mask)]
	if pen == nil {
		for i2 := range dst {
			dst[i2] += w * mask[i2]
		}
		return
	}
	pen = pen[:len(mask)]
	for i2 := range dst {
		dst[i2] += w*mask[i2] + pen[i2]
	}
}

// SubInto removes the effective row of (class, i1) scaled by w from dst,
// exactly inverting AddInto (int64 arithmetic is exact, so an Add/Sub pair
// restores dst bit for bit).
func (k *Kernel) SubInto(dst []int64, w int64, class, i1 int) {
	mask, pen := k.Rows(class, i1)
	dst = dst[:len(mask)]
	if pen == nil {
		for i2 := range dst {
			dst[i2] -= w * mask[i2]
		}
		return
	}
	pen = pen[:len(mask)]
	for i2 := range dst {
		dst[i2] -= w*mask[i2] + pen[i2]
	}
}
