package partition

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/testgen"
)

// witnessShapes are the instance families of TestFixedSeedWitness: a
// sparse-sampled netlist-like graph, a dense Bernoulli graph whose coupling
// density clears 0.9, and a mid-density graph with a linear cost matrix.
var witnessShapes = []struct {
	name string
	cfg  testgen.Config
}{
	{"sparse", testgen.Config{N: 80, AvgDegree: 4, TimingProb: 0.3}},
	{"dense", testgen.Config{N: 40, WireProb: 0.95, TimingProb: 0.3}},
	{"linear", testgen.Config{N: 50, TimingProb: 0.3, WithLinear: true}},
}

// assignmentHash is the FNV-64a hash of an assignment, each entry written
// as a little-endian uint64.
func assignmentHash(a Assignment) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range a {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// witnessHashes runs every seeded entry point over every witness shape,
// seed and timing mode and returns the hash of each final assignment keyed
// "shape/seed/timing/method".
func witnessHashes(t *testing.T) map[string]uint64 {
	t.Helper()
	ctx := context.Background()
	got := map[string]uint64{}
	for _, shape := range witnessShapes {
		for seed := int64(1); seed <= 4; seed++ {
			p, _ := testgen.Random(rand.New(rand.NewSource(seed)), shape.cfg)
			key := fmt.Sprintf("%s/%d", shape.name, seed)
			start, err := FeasibleStart(ctx, p, seed, 40)
			if err != nil {
				t.Fatalf("%s: FeasibleStart: %v", key, err)
			}
			got[key+"/feasible-start"] = assignmentHash(start)
			for _, relax := range []bool{false, true} {
				timing := "enforced"
				if relax {
					timing = "relaxed"
				}
				key := key + "/" + timing
				o := QBPOptions{Iterations: 15, Seed: seed, RelaxTiming: relax}
				res, err := SolveQBP(ctx, p, o)
				if err != nil {
					t.Fatalf("%s: SolveQBP: %v", key, err)
				}
				if shape.name == "dense" && res.Stats.Density < 0.9 {
					t.Fatalf("%s: coupling density %.3f, want >= 0.9", key, res.Stats.Density)
				}
				got[key+"/qbp"] = assignmentHash(res.Assignment)
				ms, err := SolveQBPMultiStart(ctx, p, MultiStartOptions{Base: o, Starts: 4, Workers: 3})
				if err != nil {
					t.Fatalf("%s: SolveQBPMultiStart: %v", key, err)
				}
				got[key+"/multistart"] = assignmentHash(ms.Assignment)
				ml, err := SolveMultilevel(ctx, p, MultilevelOptions{
					Coarse:        MultiStartOptions{Base: o, Starts: 2, Workers: 2},
					CoarsenTarget: 12,
				})
				if err != nil {
					t.Fatalf("%s: SolveMultilevel: %v", key, err)
				}
				if len(ml.Levels) < 2 {
					t.Fatalf("%s: SolveMultilevel did not coarsen", key)
				}
				got[key+"/multilevel"] = assignmentHash(ml.Assignment)
			}
		}
	}
	return got
}

// TestFixedSeedWitness pins the final assignment of every seeded solver
// entry point (flat QBP, multistart, the feasible start, the V-cycle) by
// hash, so a change to the solver that moves any assignment fails here.
// The hashes were recorded while the solver still had a dense coupling
// mirror and an intra-solve worker pool, after checking that every
// combination of those options produced the same ones.
func TestFixedSeedWitness(t *testing.T) {
	got := witnessHashes(t)
	if len(got) != len(fixedSeedWitness) {
		t.Errorf("%d witness hashes, want %d", len(got), len(fixedSeedWitness))
	}
	for key, want := range fixedSeedWitness {
		if h, ok := got[key]; !ok || h != want {
			t.Errorf("%s: hash %#016x, want %#016x", key, h, want)
		}
	}
}

// fixedSeedWitness holds the recorded hashes, keyed as witnessHashes
// returns them.
var fixedSeedWitness = map[string]uint64{
	"dense/1/enforced/multilevel":  0x32a4bcbc3d321505,
	"dense/1/enforced/multistart":  0xcc059a28845f34c5,
	"dense/1/enforced/qbp":         0xcc059a28845f34c5,
	"dense/1/feasible-start":       0x0e88afe5f4da5d85,
	"dense/1/relaxed/multilevel":   0xfc316c10f8f6e306,
	"dense/1/relaxed/multistart":   0xa7d7201977e9f325,
	"dense/1/relaxed/qbp":          0x888883bb212a4887,
	"dense/2/enforced/multilevel":  0x8decfe0a00128cc4,
	"dense/2/enforced/multistart":  0xe3d858f73b45e8c6,
	"dense/2/enforced/qbp":         0xc10306717dd24845,
	"dense/2/feasible-start":       0xba794bc582e11fc6,
	"dense/2/relaxed/multilevel":   0x4c43ccb6077839c6,
	"dense/2/relaxed/multistart":   0xb982914d033e6e65,
	"dense/2/relaxed/qbp":          0xd08aba19e7afc665,
	"dense/3/enforced/multilevel":  0xe3ea3ce1a1681925,
	"dense/3/enforced/multistart":  0xae6a15734f23e7a5,
	"dense/3/enforced/qbp":         0xae6a15734f23e7a5,
	"dense/3/feasible-start":       0xa48773f88d007c47,
	"dense/3/relaxed/multilevel":   0x3bc29b9da90fd0e6,
	"dense/3/relaxed/multistart":   0xccaa8122a4efdd86,
	"dense/3/relaxed/qbp":          0xccaa8122a4efdd86,
	"dense/4/enforced/multilevel":  0x7588f9fa4348e184,
	"dense/4/enforced/multistart":  0x8c7e6071ec5f9804,
	"dense/4/enforced/qbp":         0x8c7e6071ec5f9804,
	"dense/4/feasible-start":       0xfd05d610c7eb6945,
	"dense/4/relaxed/multilevel":   0xa0aa7f88dd4b38a5,
	"dense/4/relaxed/multistart":   0x0744355a3b78eea4,
	"dense/4/relaxed/qbp":          0xdf99d8f8a1dac947,
	"linear/1/enforced/multilevel": 0x2599610ad4763664,
	"linear/1/enforced/multistart": 0x2599610ad4763664,
	"linear/1/enforced/qbp":        0x2599610ad4763664,
	"linear/1/feasible-start":      0x2599610ad4763664,
	"linear/1/relaxed/multilevel":  0xa5f3bf6d928be9c4,
	"linear/1/relaxed/multistart":  0x0901c9368f49ea66,
	"linear/1/relaxed/qbp":         0x5667aa9011d0d847,
	"linear/2/enforced/multilevel": 0x6723862f2d6a1087,
	"linear/2/enforced/multistart": 0x44c8539b8b8fd704,
	"linear/2/enforced/qbp":        0x44c8539b8b8fd704,
	"linear/2/feasible-start":      0x07cc711737db2c47,
	"linear/2/relaxed/multilevel":  0x711d4b02f5536da5,
	"linear/2/relaxed/multistart":  0x866b1794287ac384,
	"linear/2/relaxed/qbp":         0x866b1794287ac384,
	"linear/3/enforced/multilevel": 0x8144529c568ee386,
	"linear/3/enforced/multistart": 0xf844923585d23da6,
	"linear/3/enforced/qbp":        0xf844923585d23da6,
	"linear/3/feasible-start":      0x138d2c5a9a29d9c5,
	"linear/3/relaxed/multilevel":  0x38960e23164a6e05,
	"linear/3/relaxed/multistart":  0x1e9b499039cd6127,
	"linear/3/relaxed/qbp":         0x1e9b499039cd6127,
	"linear/4/enforced/multilevel": 0xbe8f1bc9e4cd25e4,
	"linear/4/enforced/multistart": 0xcb2643a38ee23ac7,
	"linear/4/enforced/qbp":        0x6a6b51c4ec1f3367,
	"linear/4/feasible-start":      0xae863db24ae0b7a6,
	"linear/4/relaxed/multilevel":  0xee6ab428dd3c61c5,
	"linear/4/relaxed/multistart":  0xd14097e0d9d52186,
	"linear/4/relaxed/qbp":         0x97b58725917dbd46,
	"sparse/1/enforced/multilevel": 0x7700ff15fe21a2e7,
	"sparse/1/enforced/multistart": 0x2304f7f51d58f024,
	"sparse/1/enforced/qbp":        0x2304f7f51d58f024,
	"sparse/1/feasible-start":      0x19a8ff736e7360a5,
	"sparse/1/relaxed/multilevel":  0x031073234a31a927,
	"sparse/1/relaxed/multistart":  0xf9c9f6eb5402b947,
	"sparse/1/relaxed/qbp":         0xc7a1175f8e3a00c7,
	"sparse/2/enforced/multilevel": 0xa5c81600242748c4,
	"sparse/2/enforced/multistart": 0xcdfe9e4a73f75fe7,
	"sparse/2/enforced/qbp":        0x9fe060229b2f22e7,
	"sparse/2/feasible-start":      0x37e760623fd68006,
	"sparse/2/relaxed/multilevel":  0x9370f0185bdd3b85,
	"sparse/2/relaxed/multistart":  0x7a9dab76b8f3c3a4,
	"sparse/2/relaxed/qbp":         0xbba3a64038700bc7,
	"sparse/3/enforced/multilevel": 0x34b06756789d15a4,
	"sparse/3/enforced/multistart": 0xd8ff9516a2bd6c67,
	"sparse/3/enforced/qbp":        0xe8fcbbfb3633af67,
	"sparse/3/feasible-start":      0x799ca71ca9756164,
	"sparse/3/relaxed/multilevel":  0x497ee6c23ab8c224,
	"sparse/3/relaxed/multistart":  0x57e90e2e190af965,
	"sparse/3/relaxed/qbp":         0x57e90e2e190af965,
	"sparse/4/enforced/multilevel": 0x5e667c056a6f8704,
	"sparse/4/enforced/multistart": 0xd1bef8a324e863a6,
	"sparse/4/enforced/qbp":        0xd1bef8a324e863a6,
	"sparse/4/feasible-start":      0xeb24f12f8eba2444,
	"sparse/4/relaxed/multilevel":  0x9b828d1d93239625,
	"sparse/4/relaxed/multistart":  0x54d797e037042ee7,
	"sparse/4/relaxed/qbp":         0x7b76767e6b6729c4,
}
