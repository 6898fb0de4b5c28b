package gap

import (
	"container/heap"
	"context"
	"math"
	"math/rand"
	"testing"
)

// boxedHeap drives regretHeap's order through container/heap, the
// implementation the typed heap replaced, as the reference.
type boxedHeap struct{ h regretHeap }

func (b *boxedHeap) Len() int           { return len(b.h) }
func (b *boxedHeap) Less(x, y int) bool { return b.h.less(x, y) }
func (b *boxedHeap) Swap(x, y int)      { b.h[x], b.h[y] = b.h[y], b.h[x] }
func (b *boxedHeap) Push(x any)         { b.h = append(b.h, x.(regretItem)) }
func (b *boxedHeap) Pop() any {
	n := len(b.h) - 1
	it := b.h[n]
	b.h = b.h[:n]
	return it
}

// randomRegretItem draws keys from small pools so ties are common, with
// NaN and ±Inf regrets and ±Inf best costs mixed in.
func randomRegretItem(rng *rand.Rand, j int) regretItem {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	it := regretItem{j: j, best: rng.Intn(4), second: rng.Intn(4) - 1}
	it.regret = float64(rng.Intn(5))
	if rng.Intn(4) == 0 {
		it.regret = specials[rng.Intn(len(specials))]
	}
	it.bestC = float64(rng.Intn(5))
	if rng.Intn(8) == 0 {
		it.bestC = specials[1+rng.Intn(2)]
	}
	return it
}

func sameItem(a, b regretItem) bool {
	return a.j == b.j && a.best == b.best && a.second == b.second &&
		math.Float64bits(a.regret) == math.Float64bits(b.regret) &&
		math.Float64bits(a.bestC) == math.Float64bits(b.bestC)
}

// TestRegretHeapMatchesContainerHeap checks that the typed heap pops the
// same sequence as container/heap under interleaved pushes and pops. NaN
// regrets make less a non-strict order, so only the same sift algorithm
// reproduces the sequence.
func TestRegretHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		got := make(regretHeap, 0, n)
		ref := &boxedHeap{}
		for j := 0; j < n; j++ {
			it := randomRegretItem(rng, j)
			got = append(got, it)
			ref.h = append(ref.h, it)
		}
		got.init()
		heap.Init(ref)
		next := n
		for step := 0; len(got) > 0 || ref.Len() > 0; step++ {
			if len(got) != ref.Len() {
				t.Fatalf("trial %d step %d: sizes %d/%d", trial, step, len(got), ref.Len())
			}
			if rng.Intn(3) == 0 {
				it := randomRegretItem(rng, next)
				next++
				got.push(it)
				heap.Push(ref, it)
				continue
			}
			a, b := got.pop(), heap.Pop(ref).(regretItem)
			if !sameItem(a, b) {
				t.Fatalf("trial %d step %d: typed heap popped %+v, container/heap %+v", trial, step, a, b)
			}
		}
	}
}

// TestSolveAllocationsIndependentOfN pins gap.Solve's allocations: a
// bounded number per call (the result, the constructor's and the refiner's
// once-per-call buffers), the same at n = 150 and n = 2000.
func TestSolveAllocationsIndependentOfN(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	small := sparseEtaInstance(rng, 6, 150, 4)
	big := sparseEtaInstance(rng, 16, 2000, 8)
	opt := Options{Refine: RefineSwap, MaxRefinePasses: 3}
	allocs := func(in *Instance) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, ok := Solve(context.Background(), in, opt); !ok {
				t.Fatal("infeasible")
			}
		})
	}
	a, b := allocs(small), allocs(big)
	if a != b || a > 16 {
		t.Fatalf("Solve allocations: %v at n=150, %v at n=2000; want equal and at most 16", a, b)
	}
}
