package flatmat

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

func TestFromRowsRoundTrip(t *testing.T) {
	rows := [][]int64{{1, 2, 3}, {4, 5, 6}}
	m := FromRows(rows)
	if m.Rows() != 2 || m.Stride != 3 {
		t.Fatalf("shape = %d×%d, want 2×3", m.Rows(), m.Stride)
	}
	for i := range rows {
		for j := range rows[i] {
			if m.At(i, j) != rows[i][j] {
				t.Fatalf("At(%d,%d) = %d, want %d", i, j, m.At(i, j), rows[i][j])
			}
		}
	}
	// The flat mirror is a copy, not an alias.
	rows[0][0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("FromRows aliased the input rows")
	}
	if z := FromRows(nil); z.Rows() != 0 {
		t.Fatalf("empty FromRows has %d rows", z.Rows())
	}
}

// reference is the branchy per-entry evaluation the kernel replaces.
func reference(b, d [][]int64, bound, penalty, w int64, i1, i2 int) int64 {
	if bound != model.Unconstrained && d[i1][i2] > bound {
		return penalty
	}
	return w * b[i1][i2]
}

func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(9)
		b := make([][]int64, m)
		d := make([][]int64, m)
		for i := range b {
			b[i] = make([]int64, m)
			d[i] = make([]int64, m)
			for j := range b[i] {
				b[i][j] = int64(rng.Intn(20))
				d[i][j] = int64(rng.Intn(10))
			}
		}
		bounds := []int64{0, 3, 7}
		penalty := int64(50)
		k := NewKernel(FromRows(b), FromRows(d), bounds, penalty)
		if k.M() != m {
			t.Fatalf("kernel M = %d, want %d", k.M(), m)
		}
		classes := append([]int{UnconstrainedClass}, 0, 1, 2)
		for _, class := range classes {
			bound := model.Unconstrained
			if class >= 0 {
				bound = bounds[class]
			}
			w := int64(rng.Intn(5))
			for i1 := 0; i1 < m; i1++ {
				got := make([]int64, m)
				k.AddInto(got, w, class, i1)
				for i2 := 0; i2 < m; i2++ {
					want := reference(b, d, bound, penalty, w, i1, i2)
					if got[i2] != want {
						t.Fatalf("AddInto class=%d i1=%d i2=%d w=%d: got %d, want %d",
							class, i1, i2, w, got[i2], want)
					}
					if e := k.Entry(class, i1, i2, w); e != want {
						t.Fatalf("Entry class=%d i1=%d i2=%d w=%d: got %d, want %d",
							class, i1, i2, w, e, want)
					}
				}
				// SubInto exactly inverts AddInto.
				k.SubInto(got, w, class, i1)
				for i2 := 0; i2 < m; i2++ {
					if got[i2] != 0 {
						t.Fatalf("SubInto left residue %d at class=%d i1=%d i2=%d", got[i2], class, i1, i2)
					}
				}
			}
		}
	}
}

// TestPairRowsMatchEntries pins the pair-row identity w·PairMask[to] +
// PairPen[to] = Entry(c,to,o,w) + Entry(c,o,to,w) for every class, o and
// to, with weights, costs and penalties large enough that the products and
// sums wrap: the identity must hold modulo 2⁶⁴, not just in range.
func TestPairRowsMatchEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(9)
		b := make([][]int64, m)
		d := make([][]int64, m)
		for i := range b {
			b[i] = make([]int64, m)
			d[i] = make([]int64, m)
			for j := range b[i] {
				b[i][j] = int64(rng.Intn(20))
				if trial%2 == 1 {
					b[i][j] = rng.Int63() - rng.Int63()
				}
				d[i][j] = int64(rng.Intn(10))
			}
		}
		bounds := []int64{0, 3, 7}
		if trial%4 == 3 {
			bounds = nil // the relaxed configuration: unconstrained rows only
		}
		penalty := int64(1)<<62 + rng.Int63n(1<<61)
		k := NewKernel(FromRows(b), FromRows(d), bounds, penalty)
		classes := []int{UnconstrainedClass}
		for c := range bounds {
			classes = append(classes, c)
		}
		for _, class := range classes {
			for _, w := range []int64{0, 1, int64(rng.Intn(7)), 1<<62 - rng.Int63n(1<<20), -(1<<62 + rng.Int63n(1<<20))} {
				for o := 0; o < m; o++ {
					mask, pen := k.PairBRow(o), []int64(nil)
					if class != UnconstrainedClass {
						mask, pen = k.PairClassRows(class, o)
					}
					for to := 0; to < m; to++ {
						got := w * mask[to]
						if pen != nil {
							got += pen[to]
						}
						if want := k.Entry(class, to, o, w) + k.Entry(class, o, to, w); got != want {
							t.Fatalf("trial %d class=%d o=%d to=%d w=%d: pair row %d, entries %d", trial, class, o, to, w, got, want)
						}
					}
				}
			}
		}
	}
}

func TestKernelZeroPenaltyStillMasks(t *testing.T) {
	// The embedded Q̂ *sets* violating entries to the penalty; with penalty 0
	// the wire coupling must still disappear there, not survive.
	b := FromRows([][]int64{{0, 5}, {5, 0}})
	d := FromRows([][]int64{{0, 9}, {9, 0}})
	k := NewKernel(b, d, []int64{3}, 0)
	if got := k.Entry(0, 0, 1, 2); got != 0 {
		t.Fatalf("violating entry with zero penalty = %d, want 0", got)
	}
	if got := k.Entry(0, 0, 0, 2); got != 0 {
		t.Fatalf("feasible diagonal entry = %d, want 0", got)
	}
}
