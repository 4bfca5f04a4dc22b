GO ?= go

.PHONY: build test vet lint race fuzz-seeds fuzz alloc-test bench bench-smoke profile check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet always; staticcheck when the host has it (the tool
# is not vendored — lint degrades gracefully rather than failing the build
# on machines without it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, ran go vet only" ; \
	fi

# The equivalence suites force every partition-parallel path; -race proves
# the shard-ownership claims of DESIGN.md §7 hold under the race detector —
# including the spill fault-injection tests, whose concurrent probes read
# spill files while workers insert into sibling shards, the dist
# equivalence suite (DESIGN.md §9), whose loopback workers run full engine
# replicas on goroutines inside the test process, and the serving-engine
# suite (DESIGN.md §12), whose concurrent sessions share one scan cohort
# and whose stress test churns opens/cancels/closes from many goroutines.
race:
	$(GO) test -race ./...

# Run the fuzz corpora as plain tests: every seed in testdata/fuzz and every
# f.Add seed goes through the spill-row / block / table-file codec round-trip
# properties, the wire-message decoders (FuzzWire: one harness in
# internal/wire/wiretest, parameterised by message type, instantiated over the
# core span codecs, the dist protocol and the serve session protocol), and
# the batched-aggregate kernels (bit-identical to the per-tuple fold for
# every builtin aggregate), and SQL text to plan (FuzzPlanQuery: the 22
# workload queries through sql.PlanQuery; any input may error, none may
# panic).
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./internal/storage ./internal/core ./internal/dist ./internal/serve ./internal/agg ./internal/sql

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

# Profile a full engine run: cmd/iolap grew -cpuprofile/-memprofile; this
# target produces both under ./profiles for `go tool pprof`.
PROFILE_ARGS ?= -workload tpch -query Q1 -scale 50000 -batches 10
profile:
	mkdir -p profiles
	$(GO) run ./cmd/iolap $(PROFILE_ARGS) -cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof

check: build lint test bench-smoke fuzz-seeds alloc-test race
