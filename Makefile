# DeepMC reproduction — build & verification pipeline.
#
#   make build       compile everything
#   make test        tier-1 gate: build + full test suite
#   make race        test suite under the race detector
#   make vet         go vet, and fail if gofmt would change any tracked Go file
#   make fuzz-short  30s per fuzz target (FuzzParse, FuzzAnalyze, FuzzEnumerate, FuzzGenome,
#                    FuzzDecodeWitness, FuzzParseJSON, FuzzDecodeWireEntry, FuzzAnalyzeRequest)
#   make bench       speedup benchmark for the parallel checker
#   make bench-trace trace-collection benchmark (PMDK and a 335-function generated app)
#   make bench-crash crash-path benchmark (four-class fault differential over the 15 crash harnesses)
#   make bench-nvm   NVM pool benchmark (memcache-shaped store/flush/fence mix; x86 and cxl, clean and faulted)
#   make cache-gate  incremental-cache byte-identity gate (cold vs warm, workers 1/2/8)
#   make serve-gate  analysis-daemon chaos/soak gate (graceful restarts, shedding, breakers)
#   make crashsim    cross-validate the static checker against crash enumeration
#   make faults      per-class fault-injection differential gate
#   make fuzz-gate   schedule-fuzzer gate: witness replay + planted-bug re-discovery
#   make soak-short  bounded heavy-traffic soak gate (crash+recover audits, sharded checker)
#   make soak        full soak gate (same checks, bigger op budgets; writes BENCH_soak.json)
#   make fleet-gate  sharded-fleet chaos gate, in-process and over HTTP (fleet == batch bytes
#                    at shards 1/4/8 through kills and network faults)
#   make pmodel-gate persistency-contract differential gate (x86 vs cxl verdict matrix)
#   make stress      cancellation / timeout / partial-report stress tests
#   make bench-selftest  vet + self-test the benchmark harness (perfbench/, its own module)
#   make ci          everything above, in order
#   make perf-ab BASE=<rev> W=<workload> PAIRS=<n> [SEED=<first seed>]
#                    paired perfbench runs of BASE against the working tree, with a
#                    verdict per end-to-end metric against BENCHMARK.json (not in ci)
#   make loc         lines of non-test Go outside perfbench/, the simplicity ledger (not in ci)
#
# A gate target's bench step is `deepmc-bench <target>`;
# `go run ./cmd/deepmc-bench -h` lists every gate and paper entry.

GO ?= go
FUZZTIME ?= 30s
FAULTSEED ?= 42
PAIRS ?= 10
SEED ?= 1

.PHONY: build test race vet fuzz-short bench bench-trace bench-crash bench-nvm cache-gate serve-gate crashsim faults fuzz-gate soak-short soak fleet-gate pmodel-gate stress bench-selftest ci perf-ab loc clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt would change:"; echo "$$unformatted"; exit 1; fi

fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEnumerate -fuzztime $(FUZZTIME) ./internal/crashsim
	$(GO) test -run '^$$' -fuzz FuzzGenome -fuzztime $(FUZZTIME) ./internal/fuzzsched
	$(GO) test -run '^$$' -fuzz FuzzDecodeWitness -fuzztime $(FUZZTIME) ./internal/fuzzsched
	$(GO) test -run '^$$' -fuzz FuzzParseJSON -fuzztime $(FUZZTIME) ./internal/report
	$(GO) test -run '^$$' -fuzz FuzzDecodeWireEntry -fuzztime $(FUZZTIME) ./internal/anacache
	$(GO) test -run '^$$' -fuzz FuzzAnalyzeRequest -fuzztime $(FUZZTIME) ./internal/serve

bench:
	$(GO) test -run '^$$' -bench BenchmarkAnalyzeParallel -benchtime 200x .

bench-trace:
	$(GO) test -run '^$$' -bench BenchmarkTraceCollection -benchmem -benchtime 5x .

bench-crash:
	$(GO) test -run '^$$' -bench BenchmarkCrashFaults -benchmem -benchtime 20x .

bench-nvm:
	$(GO) test -run '^$$' -bench BenchmarkPoolOps -benchmem .

# The cache gate: a warm (fully memoized) corpus analysis must render
# byte-identical reports to a cold one at workers 1, 2 and 8, and the
# on-disk verdict tier must round-trip across cache instances.
cache-gate: build
	$(GO) run ./cmd/deepmc-bench $@

# The serve gate: across graceful restarts with concurrent clients the
# daemon must drop zero admitted requests, render byte-identical reports
# to batch mode, trip and recover its per-pass circuit breakers, and
# shed overload with 429 instead of queueing unboundedly.
serve-gate: build
	$(GO) run ./cmd/deepmc-bench $@
	$(GO) test -race -count=1 ./internal/serve

crashsim: build
	$(GO) run ./cmd/deepmc crashsim -jobs 0

# The fault gate: every class must keep detecting every corpus bug,
# keep every fix clean, fire at least once, and replay from its seed.
faults: build
	$(GO) run ./cmd/deepmc crashsim -faults all -fault-seed $(FAULTSEED) -jobs 0

# The fuzz gate: every checked-in witness must replay byte-identically
# (schedule + crash evidence), and a default-budget seed-1 fuzz run must
# re-find every planted inter-thread bug while fixed targets stay clean.
fuzz-gate: build
	$(GO) run ./cmd/deepmc-bench $@
	$(GO) test -race -count=1 ./internal/fuzzsched ./internal/dynamic

# The soak gate: drive the instrumented apps at production shape with
# concurrent clients, crash every partition mid-workload under every
# fault class, recover, and audit that every acknowledged write is
# durable (fixed apps clean, planted bugs witnessed); the sharded
# checker must beat the pre-shard global-mutex build at 8 clients.
soak-short: build
	$(GO) run ./cmd/deepmc-bench $@
	$(GO) test -race -count=1 ./internal/soak ./internal/workload ./internal/apps/driver

soak: build
	$(GO) run ./cmd/deepmc-bench $@

# The fleet gate: the sharded coordinator's merged output must be
# byte-identical to a single-node batch run at shards 1, 4 and 8, and no
# acknowledged job may be dropped (lost executions requeue, survivors
# steal the dead shard's queue, breakers eject and re-admit via health
# probes).  The same jobs run over both transports: in-process shards
# killed and restarted mid-traffic, and real `deepmc serve -shard`
# processes behind an HTTP verdict tier, SIGKILLed and restarted at the
# same address under a seeded fault injector (latency, slow bytes,
# mid-body resets, blackholes) on every dial.  Truncated and corrupted
# responses are never trusted, the same seed replays the same fault
# schedule, and the clean rounds price the wire against in-process
# shards (BENCH_fleet_gate.json).
fleet-gate: build
	$(GO) run ./cmd/deepmc-bench $@
	$(GO) test -race -count=1 ./internal/netfault ./internal/anacache ./internal/fleet ./internal/serve

# The pmodel gate: the persistency-contract matrix must hold — bugs
# under x86 that a CXL persistence domain heals stay healed, CXL-only
# findings (wasted in-domain flushes, missing global barriers) never
# leak into x86 runs, an empty-domain cxl contract renders byte-identical
# reports and crash enumerations to x86, and cxl analysis stays
# deterministic at any worker count.
pmodel-gate: build
	$(GO) run ./cmd/deepmc-bench $@

# A short robustness run: the cancellation, deadline, partial-report and
# panic-isolation tests across every hardened package.
stress:
	$(GO) test -run 'Cancel|Timeout|Deadline|Partial|Panic|Retry' ./internal/... ./cmd/...

# The benchmark harness is its own module (replace deepmc => ../), so
# the root build never compiles it; this keeps the API it calls honest.
bench-selftest:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

ci: build vet test race fuzz-short cache-gate serve-gate crashsim faults fuzz-gate soak-short fleet-gate pmodel-gate stress bench-selftest

# Paired A/B of perfbench: BASE (a revision, checked out into a temporary
# git worktree, or an existing git checkout directory) against the working
# tree, PAIRS alternating pairs on seeds SEED, SEED+1, ...  Prints
# medians, IQRs, pairs won and a verdict per BENCHMARK.json metric;
# exits 1 if any run reports correct=false.
perf-ab:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make perf-ab BASE=<rev> W=<workload> [PAIRS=n] [SEED=s]"; exit 2; }
	python3 scripts/perf_ab.py --base $(BASE) --workload $(W) --pairs $(PAIRS) --seed $(SEED)

# The simplicity ledger: lines of non-test Go outside the benchmark
# harness, the figure ROADMAP tracks across simplification changes.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
