// Package partition is a performance-driven system partitioner: it assigns
// the variable-size components of a circuit to fixed-capacity partitions
// (FPGA devices, MCM/TCM chip slots) under capacity and pairwise timing
// constraints, minimizing a combination of placement preference and
// interconnection cost.
//
// It implements Shih & Kuh, "Quadratic Boolean Programming for
// Performance-Driven System Partitioning" (UCB/ERL M93/19, 1993): the
// partitioning problem PP(α,β) is reformulated *exactly* as an
// unconstrained-in-timing Quadratic Boolean Program by embedding the timing
// constraints into the cost matrix (the paper's Theorems 1 and 2), and
// solved with a generalized, sparsity-exploiting variant of Burkard's
// iterative heuristic. The two interchange baselines the paper compares
// against — GFM (generalized Fiduccia–Mattheyses single moves) and GKL
// (generalized Kernighan–Lin pair swaps) — are included, as are the
// substrates: a Generalized Assignment Problem solver, a Hungarian Linear
// Assignment solver, and the Quadratic Assignment special case.
//
// # Quick start
//
//	problem, _ := partition.NewProblem(circuit, topology, 0, 1, nil)
//	start, _ := partition.FeasibleStart(context.Background(), problem, 0, 40)
//	res, _ := partition.SolveQBP(context.Background(), problem, partition.QBPOptions{Initial: start})
//	fmt.Println(res.WireLength, res.Feasible)
//
// # Cancellation
//
// Every solver entry point takes a context.Context. A context that is
// already cancelled returns ctx.Err() immediately; a context cancelled (or
// whose deadline expires) mid-solve stops the search at the next iteration
// boundary and returns the best feasible incumbent found so far with the
// result's Stopped field set — not an error. Without a cancellation the
// result is bit-identical for any context, so context.Background() always
// reproduces the historical behavior. See DESIGN.md §9 for the full
// contract.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package partition

import (
	"context"
	"io"

	"repro/internal/anneal"
	"repro/internal/bb"
	"repro/internal/cluster"
	"repro/internal/fm"
	"repro/internal/gap"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/kl"
	"repro/internal/lap"
	"repro/internal/model"
	"repro/internal/multilevel"
	"repro/internal/netlist"
	"repro/internal/qap"
	"repro/internal/qbp"
	"repro/internal/textio"
	"repro/internal/timing"
	"repro/internal/validate"
	"repro/internal/viz"
)

// Core data model (see internal/model for full documentation).
type (
	// Circuit is the system to partition: component sizes, weighted
	// wires, and timing constraints.
	Circuit = model.Circuit
	// Wire is a weighted interconnection between two components.
	Wire = model.Wire
	// TimingConstraint bounds the inter-partition delay allowed between
	// two components.
	TimingConstraint = model.TimingConstraint
	// Topology is the fixed partition structure: capacities, the routing
	// cost matrix B and the routing delay matrix D.
	Topology = model.Topology
	// Problem is a PP(α,β) instance.
	Problem = model.Problem
	// Assignment maps each component to a partition.
	Assignment = model.Assignment
)

// Unconstrained marks a component pair with no timing bound.
const Unconstrained = model.Unconstrained

// NewProblem assembles and validates a problem instance; linear may be nil.
func NewProblem(c *Circuit, t *Topology, alpha, beta int64, linear [][]int64) (*Problem, error) {
	return model.NewProblem(c, t, alpha, beta, linear)
}

// Partition-array geometry (see internal/geometry).
type (
	// Grid is a rows×cols array of partition slots.
	Grid = geometry.Grid
	// Metric selects the inter-partition distance model.
	Metric = geometry.Metric
)

// Distance metrics for Grid topologies.
const (
	Manhattan        = geometry.Manhattan
	SquaredEuclidean = geometry.SquaredEuclidean
	UnitCrossing     = geometry.UnitCrossing
	Chebyshev        = geometry.Chebyshev
)

// QBP solver — the paper's contribution (see internal/qbp).
type (
	// QBPOptions tunes the generalized Burkard heuristic; the zero value
	// reproduces the paper's setup (100 iterations, penalty 50).
	QBPOptions = qbp.Options
	// QBPResult is the outcome of SolveQBP.
	QBPResult = qbp.Result
	// QBPIteration is a per-iteration progress snapshot.
	QBPIteration = qbp.Iteration
	// QBPProgress is the richer telemetry snapshot passed to
	// QBPOptions.OnProgress after every iteration.
	QBPProgress = qbp.Progress
	// QBPSolveStats is the per-solve telemetry carried in
	// QBPResult.Stats: iteration/restart/η-rebuild counters, the
	// incumbent-cost trajectory, and wall time per phase.
	QBPSolveStats = qbp.SolveStats
	// QBPTrajectoryPoint is one incumbent improvement in
	// QBPSolveStats.Trajectory.
	QBPTrajectoryPoint = qbp.TrajectoryPoint
)

// SolveQBP partitions p with the generalized Burkard heuristic over the
// timing-embedded quadratic Boolean program. Cancelling ctx mid-solve
// returns the best incumbent so far with Stopped set (see the package
// comment for the full contract).
func SolveQBP(ctx context.Context, p *Problem, opts QBPOptions) (*QBPResult, error) {
	return qbp.Solve(ctx, p, opts)
}

// FeasibleStart produces an initial assignment satisfying both capacity and
// timing constraints, following the paper's protocol (QBP with B = 0).
// Cancelling ctx aborts the search with ctx.Err() — a partially feasible
// start is not useful, so there is no best-so-far here.
func FeasibleStart(ctx context.Context, p *Problem, seed int64, maxIterations int) (Assignment, error) {
	return qbp.FeasibleStart(ctx, p, seed, maxIterations)
}

// ConstructiveStart builds a capacity-feasible assignment by
// constraint-aware sequential placement.
func ConstructiveStart(p *Problem, penalty int64) (Assignment, error) {
	return qbp.ConstructiveStart(p, penalty)
}

// MinConflicts repairs timing violations in u in place (capacity
// preserving); returns the number of violated constraints remaining.
func MinConflicts(p *Problem, u Assignment, seed int64, maxSteps int) int {
	return qbp.MinConflicts(p, u, seed, maxSteps)
}

// Multi-start extension (see internal/qbp).
type (
	// MultiStartOptions tunes SolveQBPMultiStart.
	MultiStartOptions = qbp.MultiStartOptions
)

// SolveQBPMultiStart runs independent seeded QBP solves concurrently and
// returns the best result deterministically. Cancelling ctx stops feeding
// new starts, drains the in-flight workers (no goroutine leaks), and
// reduces whatever starts completed into a Stopped best-so-far result;
// ctx.Err() is returned only when no start completed at all.
func SolveQBPMultiStart(ctx context.Context, p *Problem, opts MultiStartOptions) (*QBPResult, error) {
	return qbp.SolveMultiStart(ctx, p, opts)
}

// Multi-level V-cycle solver (see internal/multilevel): coarsen by
// heavy-edge matching, solve the coarsest level with the flat QBP
// multistart, then uncoarsen with boundary-restricted GFM/GKL refinement
// per level. The hierarchy is exact — per-level objectives and feasibility
// project bit-identically onto the input problem — so the V-cycle scales
// the paper's formulation to millions of components without changing its
// accounting.
type (
	// MultilevelOptions tunes SolveMultilevel.
	MultilevelOptions = multilevel.Options
	// MultilevelResult is the outcome of SolveMultilevel.
	MultilevelResult = multilevel.Result
	// MultilevelLevelStat describes one hierarchy level of a
	// MultilevelResult.
	MultilevelLevelStat = multilevel.LevelStat
	// MultilevelHierarchy is a standalone contraction hierarchy
	// (CoarsenProblem) for callers that drive their own cycle.
	MultilevelHierarchy = multilevel.Hierarchy
)

// DefaultCoarsenTarget is the coarsest-level size SolveMultilevel hands to
// the flat solver when MultilevelOptions.CoarsenTarget is unset.
const DefaultCoarsenTarget = multilevel.DefaultCoarsenTarget

// SolveMultilevel partitions p with the multi-level V-cycle. The standing
// contracts hold: cancelling ctx mid-solve returns the best-so-far
// assignment projected to the finest level with Stopped set, and fixed-seed
// results are bit-identical for every Coarse.Workers value.
func SolveMultilevel(ctx context.Context, p *Problem, opts MultilevelOptions) (*MultilevelResult, error) {
	return multilevel.Solve(ctx, p, opts)
}

// CoarsenProblem builds the contraction hierarchy without solving — for
// inspection, testing, or custom cycles.
func CoarsenProblem(p *Problem, opts MultilevelOptions) (*MultilevelHierarchy, error) {
	return multilevel.Coarsen(p, opts)
}

// Exact reference solver (see internal/bb).
type (
	// ExactOptions tunes SolveExact.
	ExactOptions = bb.Options
	// ExactResult is the outcome of SolveExact.
	ExactResult = bb.Result
)

// SolveExact finds the certified optimum by branch and bound (mid-size
// instances; heuristics remain the tool for real circuits). Cancelling ctx
// mid-search returns the incumbent with Stopped set — a feasible upper
// bound rather than a proven optimum.
func SolveExact(ctx context.Context, p *Problem, opts ExactOptions) (ExactResult, error) {
	return bb.Solve(ctx, p, opts)
}

// Cycle-time-driven constraint derivation (see internal/timing).
type (
	// TimingGraph is a register-bounded combinational delay model.
	TimingGraph = timing.Graph
	// TimingArc is one directed signal connection of a TimingGraph.
	TimingArc = timing.Arc
	// TimingBudget is one derived routing budget.
	TimingBudget = timing.Budget
	// TimingOptions tunes DeriveTimingBudgets.
	TimingOptions = timing.Options
)

// DeriveTimingBudgets computes per-arc routing budgets for a target cycle
// time (the paper's D_C derivation).
func DeriveTimingBudgets(g *TimingGraph, opts TimingOptions) ([]TimingBudget, error) {
	return timing.Derive(g, opts)
}

// TimingConstraintsFromBudgets converts budgets into model constraints,
// keeping the tightest bound per pair.
func TimingConstraintsFromBudgets(budgets []TimingBudget) []TimingConstraint {
	return timing.Constraints(budgets)
}

// CriticalPathDelay returns the worst register-to-register intrinsic delay
// of a timing graph.
func CriticalPathDelay(g *TimingGraph) (int64, error) {
	return timing.CriticalPathDelay(g)
}

// Ratio-cut clustering (see internal/cluster).
type (
	// ClusterOptions tunes RatioCutSplit and NaturalClusters.
	ClusterOptions = cluster.Options
)

// RatioCutSplit bipartitions a circuit by ratio-cut improvement.
func RatioCutSplit(c *Circuit, opts ClusterOptions) ([]int, error) {
	return cluster.Split(c, opts)
}

// NaturalClusters recursively splits a circuit into k natural clusters.
func NaturalClusters(c *Circuit, k int, opts ClusterOptions) ([][]int, error) {
	return cluster.Clusters(c, k, opts)
}

// ClusterSeed maps natural clusters onto partitions as an initial
// assignment for the solvers.
func ClusterSeed(p *Problem, clusters [][]int) (Assignment, error) {
	return cluster.SeedAssignment(p, clusters)
}

// Simulated annealing — an additional baseline beyond the paper's GFM/GKL
// comparison (see internal/anneal).
type (
	// SAOptions tunes SolveSA.
	SAOptions = anneal.Options
	// SAResult is the outcome of SolveSA.
	SAResult = anneal.Result
)

// SolveSA anneals single-component moves over the penalized objective.
// Cancelling ctx mid-schedule returns the best state seen with Stopped set.
func SolveSA(ctx context.Context, p *Problem, opts SAOptions) (*SAResult, error) {
	return anneal.Solve(ctx, p, opts)
}

// Hypergraph front-end (see internal/netlist): real netlists connect two
// or more pins per net; these reductions produce the pairwise A matrix the
// formulation takes as input.
type (
	// Net is one hyperedge (two or more pins; Pins[0] drives).
	Net = netlist.Net
	// HyperNetlist is a hypergraph over the circuit's components.
	HyperNetlist = netlist.Netlist
	// NetModel selects the hyperedge-to-pairs reduction.
	NetModel = netlist.Model
)

// Hyperedge reduction models.
const (
	NetClique = netlist.Clique
	NetStar   = netlist.Star
)

// HypergraphCircuit assembles a Circuit from a hypergraph netlist. The
// returned denom scales the quadratic objective under the clique model.
func HypergraphCircuit(name string, sizes []int64, nl *HyperNetlist, m NetModel, timing []TimingConstraint) (*Circuit, int64, error) {
	return netlist.Circuit(name, sizes, nl, m, timing)
}

// CutNets counts nets spanning more than one partition under a.
func CutNets(nl *HyperNetlist, a Assignment) (int, error) {
	return netlist.CutNets(nl, a)
}

// Interchange baselines (see internal/fm and internal/kl).
type (
	// GFMOptions tunes the generalized Fiduccia–Mattheyses baseline.
	GFMOptions = fm.Options
	// GFMResult is the outcome of SolveGFM.
	GFMResult = fm.Result
	// GKLOptions tunes the generalized Kernighan–Lin baseline.
	GKLOptions = kl.Options
	// GKLResult is the outcome of SolveGKL.
	GKLResult = kl.Result
)

// SolveGFM improves a feasible assignment by FM-style single-move passes.
// Cancelling ctx mid-pass rolls the pass back to its best prefix and
// returns with Stopped set; the result stays feasible.
func SolveGFM(ctx context.Context, p *Problem, initial Assignment, opts GFMOptions) (*GFMResult, error) {
	return fm.Solve(ctx, p, initial, opts)
}

// SolveGKL improves a feasible assignment by KL-style pair-swap passes.
// Cancelling ctx mid-pass rolls the pass back to its best prefix and
// returns with Stopped set; the result stays feasible.
func SolveGKL(ctx context.Context, p *Problem, initial Assignment, opts GKLOptions) (*GKLResult, error) {
	return kl.Solve(ctx, p, initial, opts)
}

// Generalized and Linear Assignment special cases (§2.2.2 of the paper):
// PP(1,0) without timing constraints is a GAP; with M = N and unit
// sizes/capacities it is a LAP.
type (
	// GAPInstance is a min-cost Generalized Assignment Problem.
	GAPInstance = gap.Instance
	// GAPOptions tunes SolveGAP.
	GAPOptions = gap.Options
	// GAPRefineLevel selects the local refinement strength.
	GAPRefineLevel = gap.RefineLevel
)

// GAP refinement levels.
const (
	GAPRefineNone  = gap.RefineNone
	GAPRefineShift = gap.RefineShift
	GAPRefineSwap  = gap.RefineSwap
)

// SolveGAP runs the Martello–Toth-style heuristic with local refinement.
// ok reports capacity feasibility of the returned assignment. Cancelling
// ctx skips or cuts short the refinement sweeps; the constructed
// assignment is still returned.
func SolveGAP(ctx context.Context, in *GAPInstance, opts GAPOptions) (assign []int, cost float64, ok bool) {
	return gap.Solve(ctx, in, opts)
}

// SolveGAPExact finds the GAP optimum by branch and bound (small
// instances). Cancelling ctx mid-search returns the incumbent found so far
// (ok = false when none was reached yet).
func SolveGAPExact(ctx context.Context, in *GAPInstance) (assign []int, cost float64, ok bool) {
	return gap.SolveExact(ctx, in)
}

// SolveLAP solves the Linear Assignment Problem exactly (Hungarian
// algorithm): cost is n×m with n ≤ m; assign[row] = column.
func SolveLAP(cost [][]float64) (assign []int, total float64, err error) {
	return lap.Solve(cost)
}

// Quadratic Assignment special case (§2.2.3 of the paper).
type (
	// QAPInstance is a flow/distance Quadratic Assignment Problem.
	QAPInstance = qap.Instance
	// QAPOptions tunes SolveQAP.
	QAPOptions = qap.Options
	// QAPResult is the outcome of SolveQAP.
	QAPResult = qap.Result
)

// SolveQAP runs Burkard's original heuristic (LAP subproblems) on a QAP.
func SolveQAP(in *QAPInstance, opts QAPOptions) (*QAPResult, error) {
	return qap.Solve(in, opts)
}

// Validation (see internal/validate).
type (
	// Report is an independent evaluation of a solution.
	Report = validate.Report
)

// Validate recomputes the objective and all constraints of a solution from
// first principles.
func Validate(p *Problem, a Assignment) (*Report, error) {
	return validate.Check(p, a)
}

// Synthetic circuits (see internal/gen).
type (
	// CircuitSpec pins the published statistics of a generated circuit.
	CircuitSpec = gen.Spec
	// GenerateParams controls synthetic circuit generation.
	GenerateParams = gen.Params
	// Instance is a generated circuit with its feasibility witness.
	Instance = gen.Instance
)

// PaperCircuits lists the seven circuits of the paper's Table I.
func PaperCircuits() []CircuitSpec {
	return append([]CircuitSpec(nil), gen.Paper...)
}

// NamedCircuit generates one of the paper's circuits (ckta…cktg).
func NamedCircuit(name string) (*Instance, error) {
	return gen.Named(name)
}

// GenerateCircuit builds a synthetic instance from the parameters.
func GenerateCircuit(params GenerateParams) (*Instance, error) {
	return gen.Generate(params)
}

// StreamStats summarizes a circuit generated by StreamCircuit.
type StreamStats = gen.StreamStats

// StreamCircuit generates an instance with GenerateCircuit's statistical
// profile and writes it straight to w in the binary problem format without
// materializing the wire list, so million-component instances stay in
// O(N + M²) memory. Stream and Generate draw different (same-distribution)
// instances for the same seed; MaxFanout is not supported here.
func StreamCircuit(params GenerateParams, w io.Writer) (*StreamStats, error) {
	return gen.Stream(params, w)
}

// RenderGrid draws the partition array with per-slot component counts and
// capacity utilization as plain text.
func RenderGrid(w io.Writer, p *Problem, grid Grid, a Assignment) error {
	return viz.Grid(w, p, grid, a)
}

// RenderWireHistogram draws the weighted wire-length distribution of a.
func RenderWireHistogram(w io.Writer, p *Problem, a Assignment) error {
	return viz.WireHistogram(w, p, a)
}

// Serialization (see internal/textio).

// WriteProblem serializes p in the plain-text circuit format.
func WriteProblem(w io.Writer, p *Problem) error { return textio.WriteProblem(w, p) }

// ReadProblem parses a problem written by WriteProblem.
func ReadProblem(r io.Reader) (*Problem, error) { return textio.ReadProblem(r) }

// WriteAssignment serializes an assignment.
func WriteAssignment(w io.Writer, a Assignment) error { return textio.WriteAssignment(w, a) }

// ReadAssignment parses an assignment written by WriteAssignment.
func ReadAssignment(r io.Reader) (Assignment, error) { return textio.ReadAssignment(r) }

// Format identifies a problem/assignment serialization.
type Format = textio.Format

// Serialization formats.
const (
	// FormatText is the line-oriented format of WriteProblem.
	FormatText = textio.FormatText
	// FormatBinary is the versioned little-endian format of
	// WriteProblemBinary.
	FormatBinary = textio.FormatBinary
)

// WriteProblemBinary serializes p in the versioned binary format — the
// same model as WriteProblem, ~10× faster to parse at N ≥ 10⁵.
func WriteProblemBinary(w io.Writer, p *Problem) error { return textio.WriteProblemBinary(w, p) }

// ReadProblemBinary parses a problem written by WriteProblemBinary.
func ReadProblemBinary(r io.Reader) (*Problem, error) { return textio.ReadProblemBinary(r) }

// ReadProblemAuto reads a problem in either format, detected by magic.
func ReadProblemAuto(r io.Reader) (*Problem, error) { return textio.ReadProblemAuto(r) }

// ReadProblemDetect is ReadProblemAuto, also reporting the detected format.
func ReadProblemDetect(r io.Reader) (*Problem, Format, error) { return textio.ReadProblemDetect(r) }

// WriteAssignmentBinary serializes an assignment in the binary format.
func WriteAssignmentBinary(w io.Writer, a Assignment) error {
	return textio.WriteAssignmentBinary(w, a)
}

// ReadAssignmentBinary parses an assignment written by
// WriteAssignmentBinary.
func ReadAssignmentBinary(r io.Reader) (Assignment, error) { return textio.ReadAssignmentBinary(r) }

// ReadAssignmentAuto reads an assignment in either format.
func ReadAssignmentAuto(r io.Reader) (Assignment, error) { return textio.ReadAssignmentAuto(r) }
