GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test test-procs race fuzz crash-test parallel-test chaos-test wal-crash-test planner-test serve-smoke loadgen loadgen-smoke bench bench-smoke bench-smoke-parallel bench-regression ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 at explicit core counts: the default worker count follows
# GOMAXPROCS, so a suite that is green on one box can be red on another
# (the profile counters were, at GOMAXPROCS >= 2). Run it at each.
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...

# Everything under the race detector — including the operator property
# tests of internal/exec and the DoesNotAllocate pins in internal/core.
race:
	$(GO) test -race ./...

# Short coverage-guided fuzz runs over the parser and the snapshot
# decoder; the seed corpora alone run under plain `make test`.
fuzz:
	$(GO) test ./internal/parser -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME)

# Crash-recovery suite under the race detector: fault-injected crashes
# mid-fixpoint, torn checkpoint files, failing sinks, and the
# checkpoint/resume differential over every example program.
crash-test:
	$(GO) test -race -run 'Checkpoint|CrashRecovery|Resume|Snapshot|Torn' ./internal/core ./internal/snapshot ./datalog ./cmd/mdl
	$(GO) test -race ./internal/faults

# Component-scheduler suite under the race detector: the determinism
# contract over every example program at explicit worker counts, the
# T_P-fixpoint oracle with tracing on, the scheduler stress tests, and
# worker-crash containment. These pin Parallelism >= 2 so the
# multi-worker path runs even on one CPU.
parallel-test:
	$(GO) test -race -run 'Parallel|Concurrent|TPFixpoint' ./datalog ./internal/core ./internal/relation ./internal/server ./cmd/mdl

# Chaos suite for the serve tier under the race detector: group-commit
# coalescing and poison isolation, admission control and shedding,
# injected writer stalls / slow solves / failed swaps / checkpoint-sink
# failures mid-drain, and asserts racing graceful shutdown. The
# invariants: no lost acks, no partial models, clean drain.
chaos-test:
	$(GO) test -race -run 'Chaos|GroupCommit|CommitSolo|AssertQueue|ReadInflight|ReadDeadline|HealthzLiveness|ServeShutdownRacing' ./internal/server ./cmd/mdl
	$(GO) test -race ./internal/faults

# Durability suite for the write-ahead log under the race detector: the
# log format and recovering reader (torn tails, mid-log corruption,
# compaction), the server commit path with injected append/fsync
# failures, and the binary-level SIGKILL loop — kill `mdl serve -wal`
# mid-drain under mixed load, restart, and prove no acked batch is lost
# and the recovered model equals a one-shot solve.
wal-crash-test:
	$(GO) test -race -run 'WAL|SeqWatermark|DirSync|Watermark' ./internal/wal ./internal/snapshot ./internal/server ./datalog ./cmd/mdl
	$(GO) test -race -run 'TestChaosWALSigkillRecovery' -count=1 ./cmd/mdl

# Cost-based planner suite under the race detector: the estimator
# property tests, and the syntactic-vs-cost differential over every
# example program (byte-identical models, traces, stats, checkpoints,
# at parallelism 1/2/N). See docs/PLANNER.md.
planner-test:
	$(GO) test -race ./internal/planner
	$(GO) test -race -run 'Planner|Plan' ./datalog ./cmd/mdl

# End-to-end smoke test of the mdl serve subsystem over real HTTP:
# query, assert, explain, metrics, graceful shutdown, warm restart.
serve-smoke:
	sh scripts/serve-smoke.sh

# Load-generator harness: steady + overload phases against a live
# server; merges p50/p99/error-rate reports into BENCH_<date>.json.
loadgen:
	sh scripts/loadgen.sh

# Short loadgen phases against a throwaway BENCH file: proves the
# harness and the serve tier survive overload without hard errors.
loadgen-smoke:
	LOADGEN_DURATION=2s LOADGEN_OVERLOAD_DURATION=1s \
		LOADGEN_OUT=/tmp/bench-loadgen-smoke.json sh scripts/loadgen.sh

# Full benchmark run; writes BENCH_<date>.json at the repo root.
bench:
	sh scripts/bench.sh

# One iteration per benchmark: proves every benchmark still compiles
# and runs without paying for statistically meaningful timings.
bench-smoke:
	BENCHTIME=1x BENCH_OUT=/tmp/bench-smoke.json sh scripts/bench.sh

# Smoke the component-scheduler benchmark specifically (parallelism
# 1/2/GOMAXPROCS sub-runs of the eight-component workload).
bench-smoke-parallel:
	BENCHTIME=1x BENCH_PATTERN='SolveParallel' \
		BENCH_OUT=/tmp/bench-smoke-parallel.json sh scripts/bench.sh

# Allocation-regression gate: fail if BenchmarkSolve's allocs/op moves
# off its pin, or the cost plan is slower than the syntactic one.
bench-regression:
	sh scripts/bench_regression.sh

ci: vet build test-procs race fuzz crash-test parallel-test chaos-test wal-crash-test planner-test serve-smoke loadgen-smoke bench-smoke bench-smoke-parallel bench-regression

clean:
	$(GO) clean ./...
