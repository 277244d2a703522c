GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet test test-procs race fuzz wal-crash-test serve-smoke loadgen loadgen-smoke bench-regression ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 at explicit core counts: the component walk's worker count is
# GOMAXPROCS, so a suite that is green on one box can be red on another;
# every Stats counter, per-operator probes included, must agree at each.
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...

# Everything under the race detector. The crash-recovery suite
# (fault-injected crashes mid-fixpoint, torn checkpoints, the
# checkpoint/resume differential), the component-walk suite (the
# determinism contract at explicit GOMAXPROCS, the T_P-fixpoint oracle,
# worker-crash containment), the serve tier's chaos suite (group
# commit, admission control, injected stalls and failed swaps, asserts
# racing shutdown) and the Δ-driver differential are all tests of ./...,
# so this one target is where they run under -race.
race:
	$(GO) test -race ./...

# Short coverage-guided fuzz runs over the parser and the snapshot
# decoder; the seed corpora alone run under plain `make test`.
fuzz:
	$(GO) test ./internal/parser -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME)

# Durability suite for the write-ahead log under the race detector: the
# log format and recovering reader (torn tails, mid-log corruption,
# compaction), the server commit path with injected append/fsync
# failures, and the binary-level SIGKILL loop — kill `mdl serve -wal`
# mid-drain under mixed load, restart, and prove no acked batch is lost
# and the recovered model equals a one-shot solve.
wal-crash-test:
	$(GO) test -race -run 'WAL|SeqWatermark|DirSync|Watermark' ./internal/wal ./internal/snapshot ./internal/server ./datalog ./cmd/mdl
	$(GO) test -race -run 'TestChaosWALSigkillRecovery' -count=1 ./cmd/mdl

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

# Regression gate: fail if BenchmarkSolve's allocs/op moves off its pin,
# or Example 4.3's index probes per solve move off theirs.
bench-regression:
	sh scripts/bench_regression.sh

# CI's target set, plus one iteration of every root benchmark (proves
# each still compiles and runs; timings that carry a conclusion come from
# benchmark/, see BENCHMARK.json).
ci: vet build test-procs race fuzz wal-crash-test serve-smoke loadgen-smoke bench-regression
	$(GO) test . -run '^$$' -bench . -benchtime 1x

clean:
	$(GO) clean ./...
