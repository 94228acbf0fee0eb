# DeepMC reproduction — build & verification pipeline.
#
#   make build       compile everything
#   make test        tier-1 gate: build + full test suite
#   make race        test suite under the race detector
#   make vet         go vet
#   make fuzz-short  30s per fuzz target (FuzzParse, FuzzAnalyze, FuzzEnumerate, FuzzGenome)
#   make bench       speedup benchmark for the parallel checker
#   make bench-trace trace-collection benchmark (PMDK and a 335-function generated app)
#   make cache-gate  incremental-cache byte-identity gate (cold vs warm, workers 1/2/8)
#   make serve-gate  analysis-daemon chaos/soak gate (graceful restarts, shedding, breakers)
#   make crashsim    cross-validate the static checker against crash enumeration
#   make faults      per-class fault-injection differential gate
#   make fuzz-gate   schedule-fuzzer gate: witness replay + planted-bug re-discovery
#   make soak-short  bounded heavy-traffic soak gate (crash+recover audits, sharded checker)
#   make soak        full soak gate (same checks, bigger op budgets; writes BENCH_soak.json)
#   make fleet-gate  sharded-fleet chaos gate (fleet == batch bytes at shards 1/4/8 with kills)
#   make net-fleet-gate  multi-process HTTP fleet gate (shard processes, network faults, kills)
#   make pmodel-gate persistency-contract differential gate (x86 vs cxl verdict matrix)
#   make stress      cancellation / timeout / partial-report stress tests
#   make bench-selftest  vet + self-test the benchmark harness (perfbench/, its own module)
#   make ci          everything above, in order

GO ?= go
FUZZTIME ?= 30s
FAULTSEED ?= 42

.PHONY: build test race vet fuzz-short bench bench-trace cache-gate serve-gate crashsim faults fuzz-gate soak-short soak fleet-gate net-fleet-gate pmodel-gate stress bench-selftest ci clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEnumerate -fuzztime $(FUZZTIME) ./internal/crashsim
	$(GO) test -run '^$$' -fuzz FuzzGenome -fuzztime $(FUZZTIME) ./internal/fuzzsched

bench:
	$(GO) test -run '^$$' -bench BenchmarkAnalyzeParallel -benchtime 200x .

bench-trace:
	$(GO) test -run '^$$' -bench BenchmarkTraceCollection -benchmem -benchtime 5x .

# The cache gate: a warm (fully memoized) corpus analysis must render
# byte-identical reports to a cold one at workers 1, 2 and 8, and the
# on-disk verdict tier must round-trip across cache instances.
cache-gate: build
	$(GO) run ./cmd/deepmc-bench -cache-gate

# The serve gate: across graceful restarts with concurrent clients the
# daemon must drop zero admitted requests, render byte-identical reports
# to batch mode, trip and recover its per-pass circuit breakers, and
# shed overload with 429 instead of queueing unboundedly.
serve-gate: build
	$(GO) run ./cmd/deepmc-bench -serve
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
	$(GO) run ./cmd/deepmc-bench -fuzz
	$(GO) test -race -count=1 ./internal/fuzzsched ./internal/dynamic

# The soak gate: drive the instrumented apps at production shape with
# concurrent clients, crash every partition mid-workload under every
# fault class, recover, and audit that every acknowledged write is
# durable (fixed apps clean, planted bugs witnessed); the sharded
# checker must beat the pre-shard global-mutex build at 8 clients.
soak-short: build
	$(GO) run ./cmd/deepmc-bench -soak-short
	$(GO) test -race -count=1 ./internal/soak ./internal/workload ./internal/apps/driver

soak: build
	$(GO) run ./cmd/deepmc-bench -soak

# The fleet gate: the sharded coordinator's merged output must be
# byte-identical to a single-node batch run at shards 1, 4 and 8 — with
# shards killed and restarted mid-traffic — and no acknowledged job may
# be dropped (lost executions requeue, survivors steal the dead shard's
# queue, breakers eject and re-admit via health probes).
fleet-gate: build
	$(GO) run ./cmd/deepmc-bench -fleet
	$(GO) test -race -count=1 ./internal/fleet

# The net-fleet gate: the same fleet==batch contract with the fleet
# taken over the wire — real `deepmc serve -shard` processes, an HTTP
# verdict tier, and a seeded fault injector (latency, slow bytes,
# mid-body resets, blackholes) on every dial.  Byte identity must hold
# at shards 1/4/8 through SIGKILLed shard processes restarted at the
# same address, truncated and corrupted responses are never trusted,
# the same seed replays the same fault schedule, and wire overhead is
# recorded against in-process transports (BENCH_fleet_http.json).
net-fleet-gate: build
	mkdir -p bin
	$(GO) build -o bin/deepmc ./cmd/deepmc
	DEEPMC_BIN=$(CURDIR)/bin/deepmc $(GO) run ./cmd/deepmc-bench -net-fleet
	DEEPMC_BIN=$(CURDIR)/bin/deepmc $(GO) run ./cmd/deepmc-bench -fleet-http
	$(GO) test -race -count=1 ./internal/netfault ./internal/anacache ./internal/fleet ./internal/serve

# The pmodel gate: the persistency-contract matrix must hold — bugs
# under x86 that a CXL persistence domain heals stay healed, CXL-only
# findings (wasted in-domain flushes, missing global barriers) never
# leak into x86 runs, an empty-domain cxl contract renders byte-identical
# reports and crash enumerations to x86, and cxl analysis stays
# deterministic at any worker count.
pmodel-gate: build
	$(GO) run ./cmd/deepmc-bench -pmodel-gate

# A short robustness run: the cancellation, deadline, partial-report and
# panic-isolation tests across every hardened package.
stress:
	$(GO) test -run 'Cancel|Timeout|Deadline|Partial|Panic|Retry' ./internal/... ./cmd/...

# The benchmark harness is its own module (replace deepmc => ../), so
# the root build never compiles it; this keeps the API it calls honest.
bench-selftest:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

ci: build vet test race fuzz-short cache-gate serve-gate crashsim faults fuzz-gate soak-short fleet-gate net-fleet-gate pmodel-gate stress bench-selftest

clean:
	$(GO) clean ./...
	rm -rf bin
