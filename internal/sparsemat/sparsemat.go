// Package sparsemat holds the coupling matrix behind the solve kernels. The
// paper's instances are netlists, and netlist coupling matrices a[j1][j2]
// are overwhelmingly sparse (bounded fan-out), so the representation here is
// CSR: per-component neighbor lists stored as four flat, contiguous arrays —
// no per-row slice headers, no pointer chasing, one cache stream per kernel
// pass. Rows enumerate partners in ascending order, which fixes the
// accumulation order of every kernel that walks them.
package sparsemat

import (
	"repro/internal/adjacency"
	"repro/internal/flatmat"
)

// UnconstrainedClass marks arcs without a finite timing bound; it matches
// flatmat.UnconstrainedClass, the value the effective-row kernel dispatches
// on.
const UnconstrainedClass = flatmat.UnconstrainedClass

// CSR is the compressed-sparse-row coupling matrix: row j's arcs occupy the
// index range [RowPtr[j], RowPtr[j+1]) of the parallel Col/Weight/Class/
// MaxDelay arrays. Within a row, Col is strictly ascending (inherited from
// adjacency.Lists). Build once per solve with FromLists; immutable
// afterwards and safe for concurrent readers.
type CSR struct {
	N        int
	RowPtr   []int32 // len N+1
	Col      []int32 // len nnz: partner component index
	Weight   []int64 // len nnz: aggregated wire weight (0 for timing-only arcs)
	Class    []int32 // len nnz: delay class, UnconstrainedClass when unbounded
	MaxDelay []int64 // len nnz: tightest timing bound, model.Unconstrained when none
}

// FromLists flattens adjacency lists (plus their per-arc delay classes, as
// produced by adjacency.Lists.DelayClasses) into CSR. A nil classes marks
// every arc UnconstrainedClass — the relaxed-timing configuration, where the
// bounds are ignored entirely.
func FromLists(l *adjacency.Lists, classes [][]int) *CSR {
	nnz := l.NNZ()
	c := &CSR{
		N:        l.N,
		RowPtr:   make([]int32, l.N+1),
		Col:      make([]int32, nnz),
		Weight:   make([]int64, nnz),
		Class:    make([]int32, nnz),
		MaxDelay: make([]int64, nnz),
	}
	k := 0
	for j, arcs := range l.Arcs {
		c.RowPtr[j] = int32(k)
		for x, a := range arcs {
			c.Col[k] = int32(a.Other)
			c.Weight[k] = a.Weight
			c.Class[k] = UnconstrainedClass
			if classes != nil && classes[j] != nil {
				c.Class[k] = int32(classes[j][x])
			}
			c.MaxDelay[k] = a.MaxDelay
			k++
		}
	}
	c.RowPtr[l.N] = int32(k)
	return c
}

// NNZ returns the number of stored arcs (both directions of each coupled
// pair).
func (c *CSR) NNZ() int { return len(c.Col) }

// Degree returns the number of distinct partners of component j.
func (c *CSR) Degree(j int) int { return int(c.RowPtr[j+1] - c.RowPtr[j]) }

// Row returns the index range of component j's arcs in the parallel arrays.
func (c *CSR) Row(j int) (lo, hi int) { return int(c.RowPtr[j]), int(c.RowPtr[j+1]) }

// Density is the fraction of ordered off-diagonal pairs that carry a
// coupling: NNZ / (N·(N−1)). Zero for N < 2.
func (c *CSR) Density() float64 {
	if c.N < 2 {
		return 0
	}
	return float64(c.NNZ()) / (float64(c.N) * float64(c.N-1))
}
