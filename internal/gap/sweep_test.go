package gap

// Exactness of the bin-bounded swap sweep and the eviction-bounded eject:
// each must apply the same moves, in the same order, as the plain scan it
// replaced, which lives on here as the reference. Any skip the bounds get
// wrong — a stale-high bound, too little float slack, pruning past the 2⁶¹
// cut-off, a missed arrival — changes an assignment these tests compare bit
// for bit.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceSwapSweep is the plain sweep: every pair j1 < j2 in different
// bins, in ascending order, applying each improving swap on the spot.
func referenceSwapSweep[T number](r *refiner[T]) bool {
	v, assign, remaining := r.v, r.assign, r.remaining
	n := v.n()
	improved := false
	for j1 := 0; j1 < n; j1++ {
		i1 := assign[j1]
		s1 := v.sizes[j1]
		col1 := v.col(j1)
		for j2 := j1 + 1; j2 < n; j2++ {
			i2 := assign[j2]
			if i1 == i2 {
				continue
			}
			s2 := v.sizes[j2]
			if remaining[i1]+s1 < s2 || remaining[i2]+s2 < s1 {
				continue
			}
			col2 := v.col(j2)
			delta := col1[i2] + col2[i1] - col1[i1] - col2[i2]
			if float64(delta) < -1e-12 {
				assign[j1], assign[j2] = i2, i1
				remaining[i1] += s1 - s2
				remaining[i2] += s2 - s1
				i1 = assign[j1]
				improved = true
			}
		}
	}
	return improved
}

// referenceEject is the plain depth-2 ejection scan: every full bin i is
// scanned member by member against every bin for the cheapest eviction.
// It reads the membership index and keeps it exact through its moves.
func referenceEject[T number](r *refiner[T]) bool {
	v, assign, remaining, members := r.v, r.assign, r.remaining, r.members
	m, n := v.m, v.n()
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
				continue
			}
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
						room += sj
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
				remaining[i] += v.sizes[bestK]
				remaining[bestB] -= v.sizes[bestK]
				assign[bestK] = bestB
				remaining[s] += sj
				remaining[i] -= sj
				assign[j] = i
				members.Move(bestK, i, bestB)
				members.Move(j, s, i)
				moved = true
				break
			}
		}
	}
	return moved
}

// referenceRefine is refine with the reference sweep and eject. The
// reference sweep does not maintain the membership index, so it is rebuilt
// before eject.
func referenceRefine[T number](v *view[T], assign []int, opt Options) {
	passes := opt.MaxRefinePasses
	if passes <= 0 {
		passes = 50
	}
	if opt.Refine == RefineNone {
		return
	}
	r := newRefiner(v, assign)
	for pass := 0; pass < passes; pass++ {
		for k := 0; k < 200; k++ {
			if !r.shiftSweep() {
				break
			}
		}
		if opt.Refine < RefineSwap {
			return
		}
		improved := referenceSwapSweep(r)
		if !improved {
			r.members.Build(r.assign)
			improved = referenceEject(r)
		}
		if !improved {
			return
		}
	}
}

// referenceSolve is Solve with referenceRefine.
func referenceSolve[T number](v *view[T], opt Options) (assign []int, ok bool) {
	assign, ok = construct(v)
	if ok {
		referenceRefine(v, assign, opt)
	}
	return assign, ok
}

// sweepCase is one instance of the comparison, in either element type.
type sweepCase struct {
	name string
	in   *Instance
}

// views returns the instance's solver view (exactly one is non-nil).
func (c sweepCase) views() (*view[int64], *view[float64]) {
	in := c.in
	if in.FlatCosts != nil {
		return &view[int64]{flat: in.FlatCosts, m: in.M(), sizes: in.Sizes, caps: in.Capacities}, nil
	}
	return nil, &view[float64]{flat: in.FlatCosts64, m: in.M(), sizes: in.Sizes, caps: in.Capacities}
}

// sizesAndCaps draws n item sizes in [1, 9] and m equal capacities at the
// given slack over the mean load.
func sizesAndCaps(rng *rand.Rand, m, n int, slack float64) ([]int64, []int64) {
	sizes := make([]int64, n)
	var total int64
	for j := range sizes {
		sizes[j] = 1 + rng.Int63n(9)
		total += sizes[j]
	}
	caps := make([]int64, m)
	for i := range caps {
		caps[i] = int64(math.Ceil(float64(total) * slack / float64(m)))
	}
	return sizes, caps
}

// sweepInstance draws one instance of the given family (taken mod the
// number of families):
//
//	0 int64 costs in [0, 200)
//	1 float64 costs with fractional parts
//	2 capacity-tight int64 (total capacity within 2% of total size)
//	3 sparseEtaInstance, the STEP 4 cost structure
//	4 float64 costs 1000 + k·2⁻⁴³: swap deltas land within one ulp of
//	  −1e-12 and round differently from the bounds
//	5 float64 costs that are small multiples of 2.5e-13, plus ulp nudges
//	6 int64 costs with |c| ≥ 2⁶¹ (sums wrap)
//	7 float64 costs with |c| ≥ 2⁶¹
//	8 float64 costs with some ±Inf entries (NaN deltas)
func sweepInstance(rng *rand.Rand, family int, n int) sweepCase {
	m := 2 + rng.Intn(5)
	slack := 1.1 + rng.Float64()
	family %= 9
	if family == 2 {
		slack = 1 + 0.02*rng.Float64()
	}
	if family == 3 {
		return sweepCase{"sparse-eta", sparseEtaInstance(rng, m, n, 1+rng.Intn(8))}
	}
	sizes, caps := sizesAndCaps(rng, m, n, slack)
	in := &Instance{Sizes: sizes, Capacities: caps}
	switch family {
	case 0, 2, 6:
		in.FlatCosts = make([]int64, m*n)
		for k := range in.FlatCosts {
			switch family {
			case 6:
				in.FlatCosts[k] = (1 << 61) + rng.Int63n(1<<62)
				if rng.Intn(2) == 0 {
					in.FlatCosts[k] = -in.FlatCosts[k]
				}
			default:
				in.FlatCosts[k] = rng.Int63n(200)
			}
		}
	default:
		in.FlatCosts64 = make([]float64, m*n)
		for k := range in.FlatCosts64 {
			var c float64
			switch family {
			case 1:
				c = rng.Float64() * 100
			case 4:
				c = 1000 + float64(rng.Intn(16))*0x1p-43
			case 5:
				c = float64(rng.Intn(8)) * 2.5e-13
				for nudge := rng.Intn(5) - 2; nudge != 0; nudge -= sign(nudge) {
					c = math.Nextafter(c, float64(sign(nudge))*math.Inf(1))
				}
			case 7:
				c = 0x1p61 * (1 + 3*rng.Float64())
				if rng.Intn(2) == 0 {
					c = -c
				}
			case 8:
				c = float64(rng.Intn(50))
				if rng.Intn(6) == 0 {
					c = math.Inf(1 - 2*rng.Intn(2))
				}
			}
			in.FlatCosts64[k] = c
		}
	}
	names := []string{"int64", "float64", "tight", "sparse-eta", "float-ulp-1000", "float-ulp-small", "int64-huge", "float64-huge", "float64-inf"}
	return sweepCase{names[family], in}
}

func sign(x int) int {
	if x < 0 {
		return -1
	}
	return 1
}

// compareSweeps runs the bounded sweep and eject against the references
// from the same states: the constructed assignment and a random (possibly
// overloaded) one. Between swap sweeps both sides run the same shift
// sweeps, so the comparison follows a full refine trajectory, sweep by
// sweep and eject by eject.
func compareSweeps[T number](t *testing.T, v *view[T], rng *rand.Rand, what string) {
	t.Helper()
	built, _ := construct(v)
	random := make([]int, v.n())
	for j := range random {
		random[j] = rng.Intn(v.m)
	}
	for _, start := range [][]int{built, random} {
		got := newRefiner(v, slices.Clone(start))
		want := newRefiner(v, slices.Clone(start))
		for sweep := 0; sweep < 20; sweep++ {
			gotImp, wantImp := got.swapSweep(), referenceSwapSweep(want)
			if gotImp != wantImp || !slices.Equal(got.assign, want.assign) || !slices.Equal(got.remaining, want.remaining) {
				t.Fatalf("%s sweep %d: bounded sweep diverged from the reference (improved %v/%v)\n got  %v\n want %v",
					what, sweep, gotImp, wantImp, got.assign, want.assign)
			}
			want.members.Build(want.assign)
			if gotEj, wantEj := got.eject(), referenceEject(want); gotEj != wantEj ||
				!slices.Equal(got.assign, want.assign) || !slices.Equal(got.remaining, want.remaining) {
				t.Fatalf("%s sweep %d: bounded eject diverged from the reference (moved %v/%v)\n got  %v\n want %v",
					what, sweep, gotEj, wantEj, got.assign, want.assign)
			}
			gotShift, wantShift := got.shiftSweep(), want.shiftSweep()
			if !gotImp && !gotShift && !wantShift {
				break
			}
		}
	}
}

// compareSolves checks Solve against the reference solve at both refine
// levels that run the swap sweep's pass loop.
func compareSolves[T number](t *testing.T, v *view[T], in *Instance, what string) {
	t.Helper()
	for _, opt := range []Options{{Refine: RefineSwap}, {Refine: RefineSwap, MaxRefinePasses: 2}} {
		want, wantOK := referenceSolve(v, opt)
		got, _, gotOK := Solve(context.Background(), in, opt)
		if gotOK != wantOK || !slices.Equal(got, want) {
			t.Fatalf("%s %+v: Solve diverged from the reference solve\n got  %v\n want %v", what, opt, got, want)
		}
	}
}

func checkSweepCase(t *testing.T, c sweepCase, rng *rand.Rand, what string) {
	t.Helper()
	if err := c.in.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	vi, vf := c.views()
	if vi != nil {
		compareSweeps(t, vi, rng, what)
		compareSolves(t, vi, c.in, what)
	} else {
		compareSweeps(t, vf, rng, what)
		compareSolves(t, vf, c.in, what)
	}
}

func TestSwapSweepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 450; trial++ {
		family := trial % 9
		n := 2 + rng.Intn(12)
		if trial%5 == 0 {
			n = 40 + rng.Intn(200)
		}
		c := sweepInstance(rng, family, n)
		checkSweepCase(t, c, rng, fmt.Sprintf("trial %d %s n=%d", trial, c.name, n))
	}
}

// FuzzSwapSweep compares the bounded sweep with the reference on an
// instance drawn from (seed, family, n).
func FuzzSwapSweep(f *testing.F) {
	for family := uint8(0); family < 9; family++ {
		f.Add(int64(family)+1, family, uint8(6))
		f.Add(int64(family)+100, family, uint8(70))
	}
	// Near-threshold float instances whose bounds, without the rounding
	// slack, would skip a bin holding an improving pair.
	f.Add(int64(19), uint8(4), uint8(6))
	f.Add(int64(56), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, family, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := sweepInstance(rng, int(family), 2+int(n)%150)
		checkSweepCase(t, c, rng, c.name)
	})
}
