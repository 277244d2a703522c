GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet bench-vet fma-check test test-procs test-386 race fuzz wal-crash-test serve-smoke bench-regression loc ci clean

all: build

build:
	$(GO) build ./...

# vet also fails when any Go file of the root module or of benchmark/
# is not gofmt-clean (the benchmark's build cache is skipped); gofmt is
# the one shipped with the selected Go toolchain.
vet:
	$(GO) vet ./...
	@unformatted=$$($$($(GO) env GOROOT)/bin/gofmt -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print)); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# benchmark/ is its own Go module, so the root build never compiles it;
# vet type-checks the harness and its tests against the engine's API,
# and its own unit tests (about 2 s) check the harness's arithmetic.
bench-vet:
	cd benchmark && $(GO) vet ./... && $(GO) test .

# No fused multiply-adds in repo code (scripts/fma_check.sh): cross-
# compiles cmd/mdl and the root test binary for arm64, ppc64le and
# riscv64, where Go may fuse x*y + z and change a cost's last bit.
fma-check:
	GO=$(GO) sh scripts/fma_check.sh

test:
	$(GO) test ./...

# Tier-1 at explicit core counts: the component walk's worker count is
# GOMAXPROCS, so a suite that is green on one box can be red on another;
# every Stats counter, per-operator probes included, must agree at each.
test-procs:
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=2 $(GO) test -count=1 ./...
	GOMAXPROCS=4 $(GO) test -count=1 ./...

# Tier-1 on a 32-bit platform: 386 binaries run natively on amd64.
# There int is 32 bits and a uint64 aligns to 4 bytes; a value is one
# 8-byte word there too.
test-386:
	GOARCH=386 $(GO) test -count=1 ./...

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

# Short coverage-guided fuzz runs over the value word (against a
# two-word reference), the parser (and its fact fast path against the
# general parser), the snapshot and WAL decoders, the serve tier's
# value codec and fact-array decoder (no panic, and what each decodes
# encodes and decodes back unchanged), its WAL record replay (arbitrary
# payloads, and generated batches through the binary row codec against
# Add), the relation generations
# (clone, fork and copy-on-write against a map model) and the join
# property of min/max/or that γ's Δ-fold rests on; the seed corpora
# alone run under plain `make test`. A FuzzGenerations input runs a whole
# tree of generations, so minimizing a new one is capped at a second to
# leave the run time for fuzzing.
fuzz:
	$(GO) test ./internal/val -run '^$$' -fuzz '^FuzzValueWord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parser -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parser -run '^$$' -fuzz '^FuzzFactFastPath$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/snapshot -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDecodeValue$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzDecodeFacts$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/relation -run '^$$' -fuzz '^FuzzGenerations$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/lattice -run '^$$' -fuzz '^FuzzJoinAggregate$$' -fuzztime $(FUZZTIME)

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

# Regression gate over twelve counts (scripts/bench_regression.sh):
# BenchmarkSolve's allocs/op and B/op, BenchmarkRelationInsert's bytes per row,
# Example 4.3's index probes per solve, BenchmarkLoad/load's allocs/op, the
# bytes and index probes of a chained SolveMore (solve-more-chain's B/op
# and probes/op), BenchmarkServeRecover's allocs/op (crash recovery
# over a 900-batch write-ahead log of binary records), BenchmarkLoad/rules's allocs/op
# (the rules front end: Load of the six example programs' rule texts)
# BenchmarkParse's allocs/op (the parser, facts through its fast
# path), BenchmarkExplain's allocs/op (a model's first explanation
# tree, staging included) and BenchmarkWFS/acyclic's allocs/op (the
# well-founded alternating fixpoint).
bench-regression:
	sh scripts/bench_regression.sh

# Code lines per package of the root module and their total (non-test
# Go files; blank and comment-only lines left out). A report, not a gate.
loc:
	GO=$(GO) sh scripts/loc.sh

# CI's target set, plus one iteration of every root benchmark (proves
# each still compiles and runs; timings that carry a conclusion come from
# benchmark/, see BENCHMARK.json).
ci: vet bench-vet fma-check build test-procs test-386 race fuzz wal-crash-test serve-smoke bench-regression
	$(GO) test . -run '^$$' -bench . -benchtime 1x

clean:
	$(GO) clean ./...
