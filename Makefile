# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race test-race check check-obs check-chaos check-stream check-banded check-store check-server check-tune check-perfbench bench bench-smoke figures figures-paper examples fuzz fuzz-smoke

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Race-detector lane over the packages that fork onto the parallel
# runtime's helper team (Pool.For barriers, Pool.Do recursive forks,
# block-parallel bit operations) plus the oracle-driven differential
# tests that exercise them.
test-race:
	go test -race ./internal/...

# The full pre-merge gate: static checks, build, the whole test suite,
# and the race lane. CI runs exactly this.
check:
	go vet ./...
	go build ./...
	go test ./...
	$(MAKE) test-race

# Observability lane, focused: metrics/trace goldens, histogram and
# counter property tests, and the zero-alloc guards for disabled
# instrumentation (the alloc guards only compile without -race, so
# they run in `go test ./...` above but not in test-race). A strict
# subset of `check` — use for a fast loop while touching internal/obs.
check-obs:
	go test ./internal/obs ./internal/query ./cmd/semilocal
	go test -race ./internal/obs ./internal/query
	go test -run 'TestStageCoverage4096|TestSolveObservedMatchesSolve' ./internal/core

# Chaos lane: the fault-injection harness and the hardened serving
# path, under the race detector — deterministic-replay goldens, the
# metamorphic oracle-identity suite, retry/shed/degradation semantics,
# the goroutine-leak gates (TestShutdownNoLeaks and the abandoned-
# flight reap regression), and the parallel-runtime edge cases (nested
# For and Do, panic propagation, the team's concurrency bound, spans
# of one For meeting at a rendezvous, repeated 20 times under -race).
# The zero-alloc guards for disabled chaos and the hardening knobs only
# compile without -race, so they run in a race-free pass. The helper
# team's size is fixed at start-up from GOMAXPROCS, so a one-helper
# team is its own configuration: the runtime and the solvers that fork
# on it run once more under GOMAXPROCS=1 (with -count=1: the test cache
# does not key on GOMAXPROCS, so a cached result of an ordinary run
# would stand in for it). Well under 5 minutes.
check-chaos:
	go test -race ./internal/chaos ./internal/query ./internal/parallel ./internal/core ./cmd/semilocal
	go test -race -count=20 -run 'TestPool' ./internal/parallel
	go test -run 'ZeroAllocs|AllocParity' ./internal/query ./internal/core
	GOMAXPROCS=1 go test -count=1 ./internal/parallel ./internal/hybrid ./internal/combing ./internal/bitlcs

# Streaming lane: the incremental-kernel subsystem end to end under
# the race detector — the differential bit-identity suite against
# from-scratch solves, the group-differential wall (every pattern of a
# session group bit-identical to an independent session and a
# from-scratch solve across randomized chunkings and slides), the
# per-pattern composition bound, relabeling-class leaf sharing and its
# key-exactness table, the concurrent query-during-append soaks, the
# chaos metamorphic cases, the steady-ant workspace, the engine
# wrapper's lockstep deadline/retry semantics (single-pattern streams
# are groups of one), the /v1/stream wire, and the CLI -stream
# goldens. The zero-alloc guards for the append hot path (leaf merges
# in the retained arena, the group scan, steady-state group appends)
# only compile without -race, so they run in a second, race-free pass,
# followed by a fuzz smoke of the group target.
check-stream:
	go test -race ./internal/stream ./internal/steadyant ./internal/query ./cmd/semilocal
	go test -race -run Stream ./internal/server
	go test -run 'ZeroAllocs|Freelist|AllocParity|TestGroupSteadyStateAppendAllocs' ./internal/stream ./internal/steadyant ./internal/query
	go test -fuzz FuzzStreamGroup -fuzztime 10s ./internal/stream

# Banded fast-path lane: the differential wall (adversarial shapes,
# 500+ randomized cases, collision stress under forced hash seeds, the
# editdist cross-check, the DistanceAuto dispatch), the engine
# dispatcher's metamorphic and counter-reconciliation suites plus the
# mixed banded/kernel chaos soak under -race, the CLI flag-validation
# table and banded goldens, a race-free pass for the zero-alloc guards
# on the BFS hot loop and the routing probe, and a fuzz smoke of the
# banded-vs-oracle target.
check-banded:
	go test -race ./internal/banded ./internal/editdist ./internal/query ./cmd/semilocal
	go test -run 'ZeroAllocs' ./internal/banded
	go test -fuzz FuzzBandedDistance -fuzztime 10s ./internal/banded

# Persistent-store lane: the crash/corruption test wall of the on-disk
# kernel store (truncation at every byte boundary, exhaustive bit-flip
# detection, the all-configs differential pin of the content-only key),
# the engine integration suite (warm restart under solve-killing chaos,
# store-fault metamorphic degradation, the eviction-heavy concurrent
# soak) and the CLI -store-dir warm-restart test — all under -race —
# plus a race-free pass for the store alloc guards and kernel-codec
# edge tests, and a fuzz smoke of the log-recovery target.
check-store:
	go test -race ./internal/store ./internal/query ./cmd/semilocal
	go test -run 'TestStore|TestKernelIO' ./internal/store ./internal/query ./internal/core
	go test -fuzz FuzzStoreOpen -fuzztime 10s ./internal/store

# Serving-tier lane: the HTTP serving tier end to end under the race
# detector — the differential wall (HTTP answers bit-identical to
# direct engine calls for every query family, including under benign
# chaos, and typed errors under error chaos), tenant-quota admission,
# the /healthz open/closed contract, the 8-client live-server soak with
# quiescent counter exactness, the engine's content-keyed global-LRU
# tests, the CLI -serve-addr e2e and flag-rule tests, the loadgen
# harness smoke, and a fuzz smoke of the request decoder.
check-server:
	go test -race ./internal/server ./internal/query ./cmd/semilocal ./cmd/loadgen
	go test -fuzz FuzzServerRequest -fuzztime 10s ./internal/server

# Calibration lane: the autotuning subsystem end to end under the race
# detector — the grid-sweep differential wall (every tuning point the
# calibrator can assemble solves bit-identically to the untuned build
# and the quadratic oracle, including the fused bit-parallel schedule),
# the profile persistence property tests (round-trip, torn-tail,
# strict-decode rejection table, fallback counters), the real
# calibrator on the tiny CI grid, the recycled-buffer pool suite, the
# CLI -calibrate/-profile e2e and goldens against the checked-in
# fixture profile (no live full-grid calibration in CI), a race-free
# pass for the zero-alloc guards on the recycler and query hot paths,
# and a fuzz smoke of the profile loader.
check-tune:
	go test -race ./internal/tune ./internal/recycle ./internal/core ./internal/query ./cmd/semilocal
	go test -run 'ZeroAllocs' ./internal/recycle ./internal/query
	go test -fuzz FuzzProfileLoad -fuzztime 10s ./internal/tune

# Benchmark-harness lane: perfbench is a separate module, so the root
# `go build ./...` never compiles it. Vet and unit-test it here so an
# API change in the serving layers that breaks the harness fails CI.
check-perfbench:
	cd perfbench && go vet ./... && go test ./...

bench:
	go test -bench=. -benchmem ./...

# Benchmark regression lane: run every benchmark exactly once. This
# does not measure anything meaningful — it exists so CI catches
# benchmarks that stop compiling, panic, or start allocating where a
# hot path should not (inspect with -benchmem locally).
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
	go run ./cmd/loadgen -clients 4 -duration 1s -hot 8 -size 128

# Regenerate every figure of the paper at moderate sizes.
figures:
	go run ./cmd/benchsuite -scale default all

# Publication sizes (hours on small machines).
figures-paper:
	go run ./cmd/benchsuite -scale paper all

examples:
	go run ./examples/quickstart
	go run ./examples/approxmatch
	go run ./examples/genomes
	go run ./examples/timeseries
	go run ./examples/fuzzysearch

# Short fuzzing passes over every fuzz target.
fuzz:
	go test -fuzz FuzzKernelAgreement -fuzztime 30s ./internal/combing
	go test -fuzz FuzzBinaryScore -fuzztime 30s ./internal/bitlcs
	go test -fuzz FuzzMultiply -fuzztime 30s ./internal/steadyant
	go test -fuzz FuzzCompose -fuzztime 30s ./internal/steadyant
	go test -fuzz FuzzDifferential -fuzztime 30s ./internal/core
	go test -fuzz FuzzEditWindows -fuzztime 30s ./internal/editdist
	go test -fuzz FuzzSessionQueries -fuzztime 30s ./internal/query
	go test -fuzz FuzzStreamAppend -fuzztime 30s ./internal/stream
	go test -fuzz FuzzStreamGroup -fuzztime 30s ./internal/stream
	go test -fuzz FuzzBandedDistance -fuzztime 30s ./internal/banded
	go test -fuzz FuzzKernelRoundtrip -fuzztime 30s ./internal/core
	go test -fuzz FuzzStoreOpen -fuzztime 30s ./internal/store
	go test -fuzz FuzzServerRequest -fuzztime 30s ./internal/server
	go test -fuzz FuzzProfileLoad -fuzztime 30s ./internal/tune

# Ten-second smoke pass per target — quick enough for CI, long enough to
# mutate beyond the checked-in seed corpora under testdata/fuzz.
fuzz-smoke:
	go test -fuzz FuzzKernelAgreement -fuzztime 10s ./internal/combing
	go test -fuzz FuzzBinaryScore -fuzztime 10s ./internal/bitlcs
	go test -fuzz FuzzMultiply -fuzztime 10s ./internal/steadyant
	go test -fuzz FuzzCompose -fuzztime 10s ./internal/steadyant
	go test -fuzz FuzzDifferential -fuzztime 10s ./internal/core
	go test -fuzz FuzzEditWindows -fuzztime 10s ./internal/editdist
	go test -fuzz FuzzSessionQueries -fuzztime 10s ./internal/query
	go test -fuzz FuzzStreamAppend -fuzztime 10s ./internal/stream
	go test -fuzz FuzzStreamGroup -fuzztime 10s ./internal/stream
	go test -fuzz FuzzBandedDistance -fuzztime 10s ./internal/banded
	go test -fuzz FuzzKernelRoundtrip -fuzztime 10s ./internal/core
	go test -fuzz FuzzStoreOpen -fuzztime 10s ./internal/store
	go test -fuzz FuzzServerRequest -fuzztime 10s ./internal/server
	go test -fuzz FuzzProfileLoad -fuzztime 10s ./internal/tune
