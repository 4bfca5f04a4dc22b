GO ?= go

.PHONY: build test vet lint race fuzz-seeds fuzz alloc-test bench bench-smoke ab profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet and gofmt always (lint fails on any tracked Go file
# gofmt would rewrite); staticcheck when the host has it (the tool is not
# vendored — lint degrades gracefully rather than failing the build on
# machines without it).
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "lint: gofmt would rewrite:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, ran go vet only" ; \
	fi

# TestExecutionLattice forces every partition-parallel path (DESIGN.md §16);
# -race proves the shard-ownership claims of DESIGN.md §7 hold under the race
# detector — including its shared cells, whose two engines step concurrently
# over one share.Cache, the spill fault-injection tests, whose concurrent
# probes read spill files while workers insert into sibling shards, and the
# serving-engine suite (DESIGN.md §12), whose concurrent sessions share one
# scan cohort and whose stress test churns opens/cancels/closes from many
# goroutines.
race:
	$(GO) test -race ./...

# Run the fuzz corpora as plain tests: every seed in testdata/fuzz and every
# f.Add seed goes through the spill-row / block / table-file codec round-trip
# properties, the wire-message decoders (FuzzWire: one harness in
# internal/wire/wiretest, parameterised by message type, instantiated over the
# serve session protocol), the batched-aggregate kernels (bit-identical to the
# per-tuple fold for every builtin aggregate), SQL text to plan
# (FuzzPlanQuery: the 22 workload queries through sql.PlanQuery; any input
# may error, none may panic), the bootstrap summary (FuzzSummarizeSelect:
# the confidence bounds by selection equal a full sort's, NaN, ±Inf, ±0 and
# ties included), and Theorem 1 (FuzzTheorem1Lattice: one generated plan per
# seed through every cell of the execution lattice).
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./internal/storage ./internal/serve ./internal/agg ./internal/sql ./internal/bootstrap ./internal/core

# Actually fuzz one target (open-ended; ctrl-C when satisfied), e.g.
# make fuzz FUZZ=FuzzAddBatchEquivalence FUZZPKG=./internal/agg FUZZTIME=2m
FUZZ ?= FuzzRowCodec
FUZZPKG ?= ./internal/storage
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run XXX -fuzz '^$(FUZZ)$$' -fuzztime $(FUZZTIME) $(FUZZPKG)

bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# The repository benchmark (bench/, BENCHMARK.json) is a nested module the
# root `go test ./...` reaches only through TestBenchModule; this runs the
# same vet + smoke test directly.
bench-smoke:
	cd bench && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test ./...

# Allocation-regression tests: testing.AllocsPerRun pins the per-tuple
# steady state of the kernel fold, the weight generator, and key encoding
# at zero. GOMAXPROCS irrelevant — the tests cover Workers=1 and parallel.
alloc-test:
	$(GO) test -run 'Alloc' ./internal/agg ./internal/bootstrap ./internal/cluster ./internal/core ./internal/rel ./internal/serve

# Paired A/B of one benchmark workload, the working tree against PARENT, with
# no edit under bench/: PARENT is checked out as a git worktree under .ab/
# (an existing .ab/parent checkout is moved to PARENT instead), and PAIRS
# pairs of `bench/run.sh --workload $(W)` run in alternating order (parent
# first on odd pairs, change first on even ones). Each run appends one line
# to .ab/$(W).jsonl (delete it to start a fresh comparison) that records the
# side's own revision (`git rev-parse --short HEAD` in its checkout, "+dirty"
# when that tree has uncommitted changes outside .ab/), and
# `go run ./cmd/experiments -exp ab` reports every .ab/*.jsonl: per end-to-end
# metric, both medians, the median per-pair change/parent ratio with a
# bootstrap 95% interval on it, and the pairs the change won.
#   make ab W=flat_boot PAIRS=5 PARENT=HEAD~1
W ?= flat_boot
PAIRS ?= 5
PARENT ?= HEAD
ab:
	@rev=$$(git rev-parse --verify -q '$(PARENT)^{commit}') || { echo "ab: no commit $(PARENT)"; exit 1; }; \
	if [ -d .ab/parent ]; then git -C .ab/parent checkout -q --detach $$rev; \
	else mkdir -p .ab && git worktree add -q --detach .ab/parent $$rev; fi
	@for i in $$(seq $(PAIRS)); do \
		sides="parent change"; [ $$((i % 2)) -eq 0 ] && sides="change parent"; \
		for side in $$sides; do \
			root=.; [ $$side = parent ] && root=.ab/parent; \
			out=$$(bash $$root/bench/run.sh --workload $(W) --seed 7 --seconds 12 --trace 0) || exit 1; \
			rev=$$(git -C $$root rev-parse --short HEAD); \
			if [ -n "$$(git -C $$root status --porcelain -- . ':(exclude).ab')" ]; then rev=$$rev+dirty; fi; \
			printf '{"side":"%s","rev":"%s","context":%s,"result":%s}\n' $$side $$rev \
				"$$(printf '%s\n' "$$out" | head -n 1)" "$$(printf '%s\n' "$$out" | tail -n 1)" >> .ab/$(W).jsonl; \
			echo "ab: $(W) pair $$i/$(PAIRS): $$side done"; \
		done; \
	done
	$(GO) run ./cmd/experiments -exp ab

# Profile a full engine run: cmd/iolap grew -cpuprofile/-memprofile; this
# target produces both under ./profiles for `go tool pprof`.
PROFILE_ARGS ?= -workload tpch -query Q1 -scale 50000 -batches 10
profile:
	mkdir -p profiles
	$(GO) run ./cmd/iolap $(PROFILE_ARGS) -cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof

check: build lint test bench-smoke fuzz-seeds alloc-test race
