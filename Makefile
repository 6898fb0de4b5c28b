GO ?= go

.PHONY: all build test test-race bench bench-compare perfbench tables cover fmt vet lint lint-sarif daemon-smoke clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Perf artifact: the paper tables/ablations (one full solve per op), the
# multilevel V-cycle sweep, plus the kernel micro-benchmarks (the CSR
# density sweeps, the in-loop polish, the GAP solve sweep, the gain-table
# move and swap scan, the bit-packed membership kernels, and the
# text-vs-binary serializers), 6 repetitions each, folded into
# BENCH_PR19.json (ns/op, allocs/op, and the finalWL quality metric per
# instance).
BENCHJSON ?= BENCH_PR19.json
BENCH_MICRO = ComputeEta|PenalizedValue|Polish|GAPSolve|EtaIncrementalSweep|GainsApply|SwapScan|BitsetMembership|BinaryReadWrite

bench:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -bench . -benchmem -benchtime 1x -count 6 -run '^$$' . > $$tmp/tables.txt; \
	$(GO) test -bench '$(BENCH_MICRO)' -benchmem -benchtime 200ms -count 6 -run '^$$' \
		./internal/qbp ./internal/gap ./internal/gains ./internal/bitset ./internal/textio > $$tmp/micro.txt; \
	$(GO) run ./cmd/benchjson -o $(BENCHJSON) $$tmp/tables.txt $$tmp/micro.txt; \
	echo "wrote $(BENCHJSON)"

# Perf gate: per-benchmark median deltas between the committed baseline and
# the current snapshot; exits nonzero when any shared benchmark regressed
# past ×1.25. CI runs this blocking. To accept an intentional perf change,
# refresh both files on one machine and commit them together:
#
#	make bench && cp $(BENCHJSON) BENCH_BASELINE.json
BENCH_OLD ?= BENCH_BASELINE.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold 1.25 $(BENCH_OLD) $(BENCHJSON)

# End-to-end benchmark declared in BENCHMARK.json: one untraced 35 s run of
# each workload, each ending in a JSON line of its metrics. See
# perfbench/README.md for the workloads, traced runs and regression bounds.
perfbench:
	@set -e; for w in paper-t3 vcycle-10k service-mix; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 35 --trace 0; \
	done

# Regenerate the paper's Tables I-III end to end.
tables:
	$(GO) run ./cmd/benchtables

cover:
	$(GO) test -cover ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Project-specific invariants (panic-free libraries, seeded rand, qmatrix
# index packing, determinism/overflow/bounds dataflow, ...). Strict: fails
# on any diagnostic; a justified exception is a //lint:ignore comment.
lint: vet
	$(GO) run ./cmd/qbplint ./...

# End-to-end daemon smoke: build qbpartd, submit a job over HTTP, poll it
# to completion, scrape /metrics, SIGTERM, assert a clean graceful drain.
daemon-smoke:
	sh scripts/daemon-smoke.sh

# Machine-readable report for code-scanning upload (does not fail the build).
lint-sarif:
	$(GO) run ./cmd/qbplint -format sarif ./... > qbplint.sarif || true

clean:
	$(GO) clean ./...
