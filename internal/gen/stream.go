package gen

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/geometry"
	"repro/internal/model"
	"repro/internal/textio"
)

// StreamStats summarizes a streamed instance: the section counts that went
// into the header plus the golden assignment witnessing feasibility.
type StreamStats struct {
	Components int
	Wires      int64
	Timing     int
	Partitions int
	Golden     model.Assignment
}

// streamWireSalt decorrelates the wire-draw stream from the main rng so the
// timing phase can replay it from the seed alone.
const streamWireSalt = 0x77697265 // "wire"

// Stream generates an instance with the same statistical profile as
// Generate and writes it directly to w in the binary problem format,
// holding only O(N + M²) state — never the wire list. That is what makes
// N=10⁶, deg≈8 instances (≈4·10⁶ wire records) generable on a laptop:
// Generate's dedup map alone would be hundreds of MB.
//
// Two deliberate differences from Generate follow from the streaming
// constraint, both absorbed by the readers:
//
//   - Wires are emitted as unit-weight records, one per drawn connection,
//     so duplicate pairs appear as repeated records. Every consumer merges
//     them (sparsemat.Build accumulates weights; the objective sums over
//     records), and Σ a[j1][j2] still equals Params.Wires exactly.
//   - Timing pairs replay the wire-draw rng from its seed instead of
//     permuting a materialized wire list, so constrained pairs are a prefix
//     sample of the connection stream (i.i.d. draws — a prefix is an
//     unbiased sample). Duplicate constraints are legal; the tightest
//     bound governs.
//
// MaxFanout requires global degree state and is not supported here; use
// Generate for bounded-fan-out instances. Stream and Generate produce
// different (but same-distribution) instances for the same seed.
func Stream(params Params, w io.Writer) (*StreamStats, error) {
	params.defaults()
	s := params.Spec
	if s.Components <= 1 {
		return nil, fmt.Errorf("gen: need at least 2 components, got %d", s.Components)
	}
	if params.MaxFanout > 0 {
		return nil, fmt.Errorf("gen: MaxFanout is not supported in stream mode (needs global degree state)")
	}
	grid := geometry.Grid{Rows: params.GridRows, Cols: params.GridCols}
	m := grid.M()
	if m < 2 {
		return nil, fmt.Errorf("gen: need at least 2 partitions, got %d", m)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	dist, err := grid.DistanceMatrix(geometry.Manhattan)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}

	// Sizes, golden assignment, capacities: identical construction to
	// Generate (log-uniform sizes, rebalanced random placement).
	sizes := make([]int64, s.Components)
	lnLo, lnHi := math.Log(float64(params.SizeMin)), math.Log(float64(params.SizeMax))
	for j := range sizes {
		sizes[j] = int64(math.Round(math.Exp(lnLo + rng.Float64()*(lnHi-lnLo))))
		if sizes[j] < params.SizeMin {
			sizes[j] = params.SizeMin
		}
	}
	golden := make(model.Assignment, s.Components)
	loads := make([]int64, m)
	for j := range golden {
		golden[j] = rng.Intn(m)
		loads[golden[j]] += sizes[j]
	}
	rebalance(rng, golden, sizes, loads)
	var maxLoad, total int64
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	capEach := int64(math.Ceil(float64(total) / float64(m) * params.CapacitySlack))
	if capEach < maxLoad {
		capEach = maxLoad
	}

	members := make([][]int, m)
	for j, i := range golden {
		members[i] = append(members[i], j)
	}
	neighbors := make([][]int, m)
	for i1 := 0; i1 < m; i1++ {
		for i2 := 0; i2 < m; i2++ {
			if dist[i1][i2] == 1 {
				neighbors[i1] = append(neighbors[i1], i2)
			}
		}
	}
	// draw replays deterministically given the rng: the wire section and
	// the timing section each walk the same pair stream from a fresh
	// identically-seeded rng.
	draw := func(rng *rand.Rand) (int, int) {
		j1 := rng.Intn(s.Components)
		var j2 int
		switch r := rng.Float64(); {
		case r < params.LocalProb:
			j2 = pickOther(rng, members[golden[j1]], j1)
		case r < params.LocalProb+params.NeighborProb:
			nb := neighbors[golden[j1]]
			j2 = pickOther(rng, members[nb[rng.Intn(len(nb))]], j1)
		default:
			j2 = rng.Intn(s.Components)
		}
		if j2 < 0 || j2 == j1 {
			for j2 = rng.Intn(s.Components); j2 == j1; j2 = rng.Intn(s.Components) {
			}
		}
		if j1 > j2 {
			j1, j2 = j2, j1
		}
		return j1, j2
	}

	bw, err := textio.NewBinaryProblemWriter(w, textio.ProblemHeader{
		Name:       s.Name,
		Alpha:      0,
		Beta:       1,
		Components: s.Components,
		Wires:      int(s.Wires),
		Timing:     s.TimingConstraints,
		Partitions: m,
	})
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	for _, sz := range sizes {
		if err := bw.WriteSize(sz); err != nil {
			return nil, err
		}
	}
	wireRng := rand.New(rand.NewSource(s.Seed ^ streamWireSalt))
	for placed := int64(0); placed < s.Wires; placed++ {
		j1, j2 := draw(wireRng)
		if err := bw.WriteWire(j1, j2, 1); err != nil {
			return nil, err
		}
	}

	// Timing: same tiered absolute budgets as Generate, floored at the
	// golden distance so the golden assignment stays feasible.
	diameter, err := grid.Diameter(geometry.Manhattan)
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	tier := func(num, den int64) int64 {
		b := (diameter*num + den - 1) / den
		if b < 1 {
			b = 1
		}
		return b
	}
	budgets := [4]int64{tier(1, 3), tier(1, 2), tier(2, 3), tier(5, 6)}
	weightTotal := 0
	for _, w := range params.TimingBudgetWeights {
		weightTotal += w
	}
	bound := func(j1, j2 int) int64 {
		r := rng.Intn(weightTotal)
		b := budgets[3]
		for t, w := range params.TimingBudgetWeights {
			if r < w {
				b = budgets[t]
				break
			}
			r -= w
		}
		if d := dist[golden[j1]][golden[j2]]; b < d {
			b = d
		}
		return b
	}
	replay := rand.New(rand.NewSource(s.Seed ^ streamWireSalt))
	emitted := 0
	for replayed := int64(0); emitted < s.TimingConstraints && replayed < s.Wires; replayed++ {
		j1, j2 := draw(replay)
		if err := bw.WriteTiming(j1, j2, bound(j1, j2)); err != nil {
			return nil, err
		}
		emitted++
	}
	for ; emitted < s.TimingConstraints; emitted++ {
		j1, j2 := rng.Intn(s.Components), rng.Intn(s.Components)
		for j2 == j1 {
			j2 = rng.Intn(s.Components)
		}
		if j1 > j2 {
			j1, j2 = j2, j1
		}
		if err := bw.WriteTiming(j1, j2, bound(j1, j2)); err != nil {
			return nil, err
		}
	}

	for i := 0; i < m; i++ {
		if err := bw.WriteCapacity(capEach); err != nil {
			return nil, err
		}
	}
	for i := 0; i < m; i++ {
		if err := bw.WriteCostRow(dist[i]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < m; i++ {
		if err := bw.WriteDelayRow(dist[i]); err != nil {
			return nil, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return &StreamStats{
		Components: s.Components,
		Wires:      s.Wires,
		Timing:     s.TimingConstraints,
		Partitions: m,
		Golden:     golden,
	}, nil
}
