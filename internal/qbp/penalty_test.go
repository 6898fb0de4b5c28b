package qbp

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/sparsemat"
)

// penaltySolver builds just enough of a solver to call autoPenalty, the
// same way Solve does.
func penaltySolver(t *testing.T, wires []model.Wire, maxB int64) *solver {
	t.Helper()
	c := &model.Circuit{Sizes: []int64{1, 1, 1}, Wires: wires}
	top := &model.Topology{
		Capacities: []int64{10, 10},
		Cost:       [][]int64{{0, maxB}, {maxB, 0}},
		Delay:      [][]int64{{0, 1}, {1, 0}},
	}
	p, err := model.NewProblem(c, top, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	norm := p.Normalized()
	return &solver{
		p:   norm,
		csr: sparsemat.Build(norm.Circuit),
		m:   norm.M(),
		n:   norm.N(),
		b:   norm.Topology.Cost,
		d:   norm.Topology.Delay,
	}
}

// TestAutoPenaltyModerateUnchanged pins the historical derivation on
// ordinary magnitudes: largest total coupling + 1.
func TestAutoPenaltyModerateUnchanged(t *testing.T) {
	s := penaltySolver(t, []model.Wire{{From: 0, To: 1, Weight: 40}}, 3)
	// Component 0 couples to 1 with weight 40 in both directions of the
	// arc list: tot = 2·40·3 = 240, penalty 241.
	if got, want := s.autoPenalty(), int64(241); got != want {
		t.Fatalf("autoPenalty = %d, want %d", got, want)
	}
}

// TestAutoPenaltyOverflowClamps is the regression for the unchecked
// `tot += 2 * a.Weight * maxB` accumulation: near-MaxInt64 couplings used
// to wrap int64 into a negative (or small positive) penalty that no longer
// out-bid violations.
func TestAutoPenaltyOverflowClamps(t *testing.T) {
	huge := int64(math.MaxInt64/2 - 1)
	s := penaltySolver(t, []model.Wire{{From: 0, To: 1, Weight: huge}}, 3)
	got := s.autoPenalty()
	if got <= 0 {
		t.Fatalf("autoPenalty wrapped negative: %d", got)
	}
	if got != AutoPenaltyCeiling {
		t.Fatalf("autoPenalty = %d, want the documented ceiling %d", got, AutoPenaltyCeiling)
	}
}

// TestAutoPenaltyAccumulationSaturates: each arc's coupling fits the
// ceiling but their sum does not — the running total must saturate, not
// wrap.
func TestAutoPenaltyAccumulationSaturates(t *testing.T) {
	w := int64(AutoPenaltyCeiling / 3)
	s := penaltySolver(t, []model.Wire{
		{From: 0, To: 1, Weight: w},
		{From: 0, To: 2, Weight: w},
	}, 1)
	got := s.autoPenalty()
	if got <= 0 {
		t.Fatalf("autoPenalty wrapped negative: %d", got)
	}
	if got != AutoPenaltyCeiling {
		t.Fatalf("autoPenalty = %d, want the ceiling %d", got, AutoPenaltyCeiling)
	}
}

func TestSatAdd(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0},
		{1, 2, 3},
		{AutoPenaltyCeiling, 1, AutoPenaltyCeiling},
		{AutoPenaltyCeiling - 1, 1, AutoPenaltyCeiling},
		{AutoPenaltyCeiling / 2, AutoPenaltyCeiling/2 + 7, AutoPenaltyCeiling},
	}
	for _, c := range cases {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Fatalf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSatCoupling(t *testing.T) {
	cases := []struct{ w, b, want int64 }{
		{0, 5, 0},
		{5, 0, 0},
		{3, 4, 24},
		{math.MaxInt64 / 2, 3, AutoPenaltyCeiling},
		{2, AutoPenaltyCeiling + 1, AutoPenaltyCeiling},
	}
	for _, c := range cases {
		if got := satCoupling(c.w, c.b); got != c.want {
			t.Fatalf("satCoupling(%d, %d) = %d, want %d", c.w, c.b, got, c.want)
		}
	}
}
