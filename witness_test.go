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
				for _, boundary := range []bool{false, true} {
					mode := "full"
					if boundary {
						mode = "boundary"
					}
					fr, err := SolveGFM(ctx, p, start, GFMOptions{RelaxTiming: relax, BoundaryOnly: boundary})
					if err != nil {
						t.Fatalf("%s: SolveGFM %s: %v", key, mode, err)
					}
					got[key+"/gfm-"+mode] = assignmentHash(fr.Assignment)
					kr, err := SolveGKL(ctx, p, start, GKLOptions{RelaxTiming: relax, BoundaryOnly: boundary})
					if err != nil {
						t.Fatalf("%s: SolveGKL %s: %v", key, mode, err)
					}
					got[key+"/gkl-"+mode] = assignmentHash(kr.Assignment)
				}
				sa, err := SolveSA(ctx, p, SAOptions{Seed: seed, RelaxTiming: relax})
				if err != nil {
					t.Fatalf("%s: SolveSA: %v", key, err)
				}
				got[key+"/sa"] = assignmentHash(sa.Assignment)
			}
			cls, err := NaturalClusters(p.Circuit, p.M(), ClusterOptions{})
			if err != nil {
				t.Fatalf("%s: NaturalClusters: %v", key, err)
			}
			var flat Assignment // members cluster by cluster, -1 between clusters
			for _, cl := range cls {
				flat = append(append(flat, cl...), -1)
			}
			got[key+"/clusters"] = assignmentHash(flat)
			cs, err := ClusterSeed(p, cls)
			if err != nil {
				t.Fatalf("%s: ClusterSeed: %v", key, err)
			}
			got[key+"/cluster-seed"] = assignmentHash(cs)
		}
	}
	// The exact search runs on its own shape: small enough to prove
	// optimality in milliseconds.
	for seed := int64(1); seed <= 4; seed++ {
		p, _ := testgen.Random(rand.New(rand.NewSource(seed)), testgen.Config{N: 9, TimingProb: 0.3})
		key := fmt.Sprintf("exact/%d", seed)
		res, err := SolveExact(ctx, p, ExactOptions{})
		if err != nil || !res.Found {
			t.Fatalf("%s: SolveExact: found=%v err=%v", key, res.Found, err)
		}
		got[key+"/bb"] = assignmentHash(res.Assignment)
	}
	return got
}

// TestFixedSeedWitness pins the final assignment of every seeded solver
// entry point (flat QBP, multistart, the feasible start, the V-cycle, GFM
// and GKL in full and boundary mode, annealing, the ratio-cut clusters and
// their seed, and the exact search) by hash, so a change to the solver that
// moves any assignment fails here.
// The hashes were recorded while the solver still had a dense coupling
// mirror and an intra-solve worker pool, after checking that every
// combination of those options produced the same ones. The GFM, GKL,
// annealing, cluster and exact-search hashes were recorded while every
// solver still merged its coupling lists through a map.
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
	"dense/1/cluster-seed":           0x6ec4c81aab1b1d86,
	"dense/1/clusters":               0x4b83fc6265749165,
	"dense/1/enforced/gfm-boundary":  0x0e88afe5f4da5d85,
	"dense/1/enforced/gfm-full":      0x0e88afe5f4da5d85,
	"dense/1/enforced/gkl-boundary":  0x0e88afe5f4da5d85,
	"dense/1/enforced/gkl-full":      0x0e88afe5f4da5d85,
	"dense/1/enforced/multilevel":    0x32a4bcbc3d321505,
	"dense/1/enforced/multistart":    0xcc059a28845f34c5,
	"dense/1/enforced/qbp":           0xcc059a28845f34c5,
	"dense/1/enforced/sa":            0xb862fe05ad56fa05,
	"dense/1/feasible-start":         0x0e88afe5f4da5d85,
	"dense/1/relaxed/gfm-boundary":   0x3486957206eff127,
	"dense/1/relaxed/gfm-full":       0x3486957206eff127,
	"dense/1/relaxed/gkl-boundary":   0x25027e2286f8f6e5,
	"dense/1/relaxed/gkl-full":       0x25027e2286f8f6e5,
	"dense/1/relaxed/multilevel":     0xfc316c10f8f6e306,
	"dense/1/relaxed/multistart":     0xa7d7201977e9f325,
	"dense/1/relaxed/qbp":            0x888883bb212a4887,
	"dense/1/relaxed/sa":             0x48fb3e2c6ff3e6e6,
	"dense/2/cluster-seed":           0x50a82b15b9a85005,
	"dense/2/clusters":               0x5bbf313edc8e4d95,
	"dense/2/enforced/gfm-boundary":  0x2a95a78742a1e7c7,
	"dense/2/enforced/gfm-full":      0x2a95a78742a1e7c7,
	"dense/2/enforced/gkl-boundary":  0xbbbaed057fa49c06,
	"dense/2/enforced/gkl-full":      0xbbbaed057fa49c06,
	"dense/2/enforced/multilevel":    0x8decfe0a00128cc4,
	"dense/2/enforced/multistart":    0xe3d858f73b45e8c6,
	"dense/2/enforced/qbp":           0xc10306717dd24845,
	"dense/2/enforced/sa":            0x6feaf83a24340624,
	"dense/2/feasible-start":         0xba794bc582e11fc6,
	"dense/2/relaxed/gfm-boundary":   0x05b3a00166bd2484,
	"dense/2/relaxed/gfm-full":       0x05b3a00166bd2484,
	"dense/2/relaxed/gkl-boundary":   0x9dba2ef76845b146,
	"dense/2/relaxed/gkl-full":       0x9dba2ef76845b146,
	"dense/2/relaxed/multilevel":     0x4c43ccb6077839c6,
	"dense/2/relaxed/multistart":     0xb982914d033e6e65,
	"dense/2/relaxed/qbp":            0xd08aba19e7afc665,
	"dense/2/relaxed/sa":             0x507e46fdba47f9e4,
	"dense/3/cluster-seed":           0x8895822f64fb8bc6,
	"dense/3/clusters":               0x833ca8a13223fcb5,
	"dense/3/enforced/gfm-boundary":  0xae6a15734f23e7a5,
	"dense/3/enforced/gfm-full":      0xae6a15734f23e7a5,
	"dense/3/enforced/gkl-boundary":  0xa48773f88d007c47,
	"dense/3/enforced/gkl-full":      0xa48773f88d007c47,
	"dense/3/enforced/multilevel":    0xe3ea3ce1a1681925,
	"dense/3/enforced/multistart":    0xae6a15734f23e7a5,
	"dense/3/enforced/qbp":           0xae6a15734f23e7a5,
	"dense/3/enforced/sa":            0xafaf67877963f986,
	"dense/3/feasible-start":         0xa48773f88d007c47,
	"dense/3/relaxed/gfm-boundary":   0x7342185c021b8d07,
	"dense/3/relaxed/gfm-full":       0x7342185c021b8d07,
	"dense/3/relaxed/gkl-boundary":   0x2b9e8c7efdc40827,
	"dense/3/relaxed/gkl-full":       0x2b9e8c7efdc40827,
	"dense/3/relaxed/multilevel":     0x3bc29b9da90fd0e6,
	"dense/3/relaxed/multistart":     0xccaa8122a4efdd86,
	"dense/3/relaxed/qbp":            0xccaa8122a4efdd86,
	"dense/3/relaxed/sa":             0x5d134205f4dc3884,
	"dense/4/cluster-seed":           0xb505fb7b9114e1c7,
	"dense/4/clusters":               0x09be03fa4bfde3a5,
	"dense/4/enforced/gfm-boundary":  0x6b54243d686fb544,
	"dense/4/enforced/gfm-full":      0x6b54243d686fb544,
	"dense/4/enforced/gkl-boundary":  0xfd05d610c7eb6945,
	"dense/4/enforced/gkl-full":      0xfd05d610c7eb6945,
	"dense/4/enforced/multilevel":    0x7588f9fa4348e184,
	"dense/4/enforced/multistart":    0x8c7e6071ec5f9804,
	"dense/4/enforced/qbp":           0x8c7e6071ec5f9804,
	"dense/4/enforced/sa":            0x8788d909f1950de5,
	"dense/4/feasible-start":         0xfd05d610c7eb6945,
	"dense/4/relaxed/gfm-boundary":   0xfcd71c236e44e2a6,
	"dense/4/relaxed/gfm-full":       0xfcd71c236e44e2a6,
	"dense/4/relaxed/gkl-boundary":   0x5a9ae3fde696dc85,
	"dense/4/relaxed/gkl-full":       0x5a9ae3fde696dc85,
	"dense/4/relaxed/multilevel":     0xa0aa7f88dd4b38a5,
	"dense/4/relaxed/multistart":     0x0744355a3b78eea4,
	"dense/4/relaxed/qbp":            0xdf99d8f8a1dac947,
	"dense/4/relaxed/sa":             0x8b769229885daf27,
	"exact/1/bb":                     0x88d372b77dde8ce5,
	"exact/2/bb":                     0x75260990b7b8d347,
	"exact/3/bb":                     0x1c9791c7a73e9ec5,
	"exact/4/bb":                     0xcdd6269734d5f0a4,
	"linear/1/cluster-seed":          0x329e7220c7257ce5,
	"linear/1/clusters":              0xf0ca00e0bcd0eb74,
	"linear/1/enforced/gfm-boundary": 0x2599610ad4763664,
	"linear/1/enforced/gfm-full":     0x2599610ad4763664,
	"linear/1/enforced/gkl-boundary": 0x2599610ad4763664,
	"linear/1/enforced/gkl-full":     0x2599610ad4763664,
	"linear/1/enforced/multilevel":   0x2599610ad4763664,
	"linear/1/enforced/multistart":   0x2599610ad4763664,
	"linear/1/enforced/qbp":          0x2599610ad4763664,
	"linear/1/enforced/sa":           0x21458bec576daf87,
	"linear/1/feasible-start":        0x2599610ad4763664,
	"linear/1/relaxed/gfm-boundary":  0x26d98802be960b46,
	"linear/1/relaxed/gfm-full":      0x26d98802be960b46,
	"linear/1/relaxed/gkl-boundary":  0x6fec1738060bce04,
	"linear/1/relaxed/gkl-full":      0x6fec1738060bce04,
	"linear/1/relaxed/multilevel":    0xa5f3bf6d928be9c4,
	"linear/1/relaxed/multistart":    0x0901c9368f49ea66,
	"linear/1/relaxed/qbp":           0x5667aa9011d0d847,
	"linear/1/relaxed/sa":            0x0ccc61e0ff0d9805,
	"linear/2/cluster-seed":          0x832ab5c3896e2d64,
	"linear/2/clusters":              0xf2d3d6e83b8843f4,
	"linear/2/enforced/gfm-boundary": 0xcf0160b712833447,
	"linear/2/enforced/gfm-full":     0xcf0160b712833447,
	"linear/2/enforced/gkl-boundary": 0x07cc711737db2c47,
	"linear/2/enforced/gkl-full":     0x07cc711737db2c47,
	"linear/2/enforced/multilevel":   0x6723862f2d6a1087,
	"linear/2/enforced/multistart":   0x44c8539b8b8fd704,
	"linear/2/enforced/qbp":          0x44c8539b8b8fd704,
	"linear/2/enforced/sa":           0xd88034739374fac4,
	"linear/2/feasible-start":        0x07cc711737db2c47,
	"linear/2/relaxed/gfm-boundary":  0xce2cb872ba858327,
	"linear/2/relaxed/gfm-full":      0xce2cb872ba858327,
	"linear/2/relaxed/gkl-boundary":  0x5fc122506cf0fb07,
	"linear/2/relaxed/gkl-full":      0x5fc122506cf0fb07,
	"linear/2/relaxed/multilevel":    0x711d4b02f5536da5,
	"linear/2/relaxed/multistart":    0x866b1794287ac384,
	"linear/2/relaxed/qbp":           0x866b1794287ac384,
	"linear/2/relaxed/sa":            0x15279f403a16dc64,
	"linear/3/cluster-seed":          0xe6172eed10101124,
	"linear/3/clusters":              0x5e767218d88b0514,
	"linear/3/enforced/gfm-boundary": 0xdf4a455505bd77e6,
	"linear/3/enforced/gfm-full":     0xdf4a455505bd77e6,
	"linear/3/enforced/gkl-boundary": 0x138d2c5a9a29d9c5,
	"linear/3/enforced/gkl-full":     0x138d2c5a9a29d9c5,
	"linear/3/enforced/multilevel":   0x8144529c568ee386,
	"linear/3/enforced/multistart":   0xf844923585d23da6,
	"linear/3/enforced/qbp":          0xf844923585d23da6,
	"linear/3/enforced/sa":           0xf3e4ca214c8c4d66,
	"linear/3/feasible-start":        0x138d2c5a9a29d9c5,
	"linear/3/relaxed/gfm-boundary":  0xfb1c5f75cbfd0f27,
	"linear/3/relaxed/gfm-full":      0xfb1c5f75cbfd0f27,
	"linear/3/relaxed/gkl-boundary":  0xf7d6f3d3b1eef8a5,
	"linear/3/relaxed/gkl-full":      0xf7d6f3d3b1eef8a5,
	"linear/3/relaxed/multilevel":    0x38960e23164a6e05,
	"linear/3/relaxed/multistart":    0x1e9b499039cd6127,
	"linear/3/relaxed/qbp":           0x1e9b499039cd6127,
	"linear/3/relaxed/sa":            0x33eac213443ac064,
	"linear/4/cluster-seed":          0xd9dcefce48b632e6,
	"linear/4/clusters":              0x93164c859a8d2cc4,
	"linear/4/enforced/gfm-boundary": 0x6a6b51c4ec1f3367,
	"linear/4/enforced/gfm-full":     0x6a6b51c4ec1f3367,
	"linear/4/enforced/gkl-boundary": 0xae863db24ae0b7a6,
	"linear/4/enforced/gkl-full":     0xae863db24ae0b7a6,
	"linear/4/enforced/multilevel":   0xbe8f1bc9e4cd25e4,
	"linear/4/enforced/multistart":   0xcb2643a38ee23ac7,
	"linear/4/enforced/qbp":          0x6a6b51c4ec1f3367,
	"linear/4/enforced/sa":           0xcb2643a38ee23ac7,
	"linear/4/feasible-start":        0xae863db24ae0b7a6,
	"linear/4/relaxed/gfm-boundary":  0x5316f7ca3b36e8a5,
	"linear/4/relaxed/gfm-full":      0x5316f7ca3b36e8a5,
	"linear/4/relaxed/gkl-boundary":  0x9f737830b971cc06,
	"linear/4/relaxed/gkl-full":      0x9f737830b971cc06,
	"linear/4/relaxed/multilevel":    0xee6ab428dd3c61c5,
	"linear/4/relaxed/multistart":    0xd14097e0d9d52186,
	"linear/4/relaxed/qbp":           0x97b58725917dbd46,
	"linear/4/relaxed/sa":            0xe878425928deeb87,
	"sparse/1/cluster-seed":          0x5a393b0e15d0df25,
	"sparse/1/clusters":              0xa19da0de1ca02345,
	"sparse/1/enforced/gfm-boundary": 0xb3a926c0f0f727a6,
	"sparse/1/enforced/gfm-full":     0x508d520c97275425,
	"sparse/1/enforced/gkl-boundary": 0xe44891c89dfe36e5,
	"sparse/1/enforced/gkl-full":     0xe44891c89dfe36e5,
	"sparse/1/enforced/multilevel":   0x7700ff15fe21a2e7,
	"sparse/1/enforced/multistart":   0x2304f7f51d58f024,
	"sparse/1/enforced/qbp":          0x2304f7f51d58f024,
	"sparse/1/enforced/sa":           0x6b04c0a571f33506,
	"sparse/1/feasible-start":        0x19a8ff736e7360a5,
	"sparse/1/relaxed/gfm-boundary":  0xd64b55b9896fefc4,
	"sparse/1/relaxed/gfm-full":      0x4f31478dbb677b66,
	"sparse/1/relaxed/gkl-boundary":  0x7ea107f7f2a9aea5,
	"sparse/1/relaxed/gkl-full":      0xe822f41a5ca87545,
	"sparse/1/relaxed/multilevel":    0x031073234a31a927,
	"sparse/1/relaxed/multistart":    0xf9c9f6eb5402b947,
	"sparse/1/relaxed/qbp":           0xc7a1175f8e3a00c7,
	"sparse/1/relaxed/sa":            0xc8296a2660e13105,
	"sparse/2/cluster-seed":          0x9ad505683ac4d625,
	"sparse/2/clusters":              0x2839bd0c9d212805,
	"sparse/2/enforced/gfm-boundary": 0x9c82d0fbd76c1ae5,
	"sparse/2/enforced/gfm-full":     0x68e2f6b00067d107,
	"sparse/2/enforced/gkl-boundary": 0xc2f0520ab9ad5146,
	"sparse/2/enforced/gkl-full":     0xc2f0520ab9ad5146,
	"sparse/2/enforced/multilevel":   0xa5c81600242748c4,
	"sparse/2/enforced/multistart":   0xcdfe9e4a73f75fe7,
	"sparse/2/enforced/qbp":          0x9fe060229b2f22e7,
	"sparse/2/enforced/sa":           0xb33a2690b74bc6c7,
	"sparse/2/feasible-start":        0x37e760623fd68006,
	"sparse/2/relaxed/gfm-boundary":  0x3e8c30b642c7e2c5,
	"sparse/2/relaxed/gfm-full":      0x9252ee3c71626107,
	"sparse/2/relaxed/gkl-boundary":  0x943a13c545f79c26,
	"sparse/2/relaxed/gkl-full":      0x943a13c545f79c26,
	"sparse/2/relaxed/multilevel":    0x9370f0185bdd3b85,
	"sparse/2/relaxed/multistart":    0x7a9dab76b8f3c3a4,
	"sparse/2/relaxed/qbp":           0xbba3a64038700bc7,
	"sparse/2/relaxed/sa":            0x417124acd5d1a6a4,
	"sparse/3/cluster-seed":          0x0fdc1873789fe485,
	"sparse/3/clusters":              0x4313427bee2bb055,
	"sparse/3/enforced/gfm-boundary": 0xfbb1d0dc751cd4a7,
	"sparse/3/enforced/gfm-full":     0xc7d931cf3dbeb827,
	"sparse/3/enforced/gkl-boundary": 0x97d65dced00f2a24,
	"sparse/3/enforced/gkl-full":     0x97d65dced00f2a24,
	"sparse/3/enforced/multilevel":   0x34b06756789d15a4,
	"sparse/3/enforced/multistart":   0xd8ff9516a2bd6c67,
	"sparse/3/enforced/qbp":          0xe8fcbbfb3633af67,
	"sparse/3/enforced/sa":           0x3a214e80b4770b04,
	"sparse/3/feasible-start":        0x799ca71ca9756164,
	"sparse/3/relaxed/gfm-boundary":  0x877bdf17ff46a765,
	"sparse/3/relaxed/gfm-full":      0x9fc90d2e8313f627,
	"sparse/3/relaxed/gkl-boundary":  0x53abcd8c3541bb44,
	"sparse/3/relaxed/gkl-full":      0x53abcd8c3541bb44,
	"sparse/3/relaxed/multilevel":    0x497ee6c23ab8c224,
	"sparse/3/relaxed/multistart":    0x57e90e2e190af965,
	"sparse/3/relaxed/qbp":           0x57e90e2e190af965,
	"sparse/3/relaxed/sa":            0x6d83525a2d2f9ae7,
	"sparse/4/cluster-seed":          0xb36ba7e2f01c6425,
	"sparse/4/clusters":              0x07c9cca15a6a08f5,
	"sparse/4/enforced/gfm-boundary": 0xd7207298e03785c4,
	"sparse/4/enforced/gfm-full":     0xc1e5465048fd8a66,
	"sparse/4/enforced/gkl-boundary": 0xf411690fc62f7744,
	"sparse/4/enforced/gkl-full":     0xf411690fc62f7744,
	"sparse/4/enforced/multilevel":   0x5e667c056a6f8704,
	"sparse/4/enforced/multistart":   0xd1bef8a324e863a6,
	"sparse/4/enforced/qbp":          0xd1bef8a324e863a6,
	"sparse/4/enforced/sa":           0x1c84adec2b2e5447,
	"sparse/4/feasible-start":        0xeb24f12f8eba2444,
	"sparse/4/relaxed/gfm-boundary":  0x49662e2df449f5e5,
	"sparse/4/relaxed/gfm-full":      0x0a71888c0bc6c564,
	"sparse/4/relaxed/gkl-boundary":  0x238fd17bcc698c04,
	"sparse/4/relaxed/gkl-full":      0x238fd17bcc698c04,
	"sparse/4/relaxed/multilevel":    0x9b828d1d93239625,
	"sparse/4/relaxed/multistart":    0x54d797e037042ee7,
	"sparse/4/relaxed/qbp":           0x7b76767e6b6729c4,
	"sparse/4/relaxed/sa":            0xd1ca2adbf45cde86,
}
