# Developer / CI entry points. Timing is measured by the end-to-end
# benchmark (benchmark/, BENCHMARK.json); `make bench` only prints the
# go test micro-benchmarks of the refinement kernels, the hop codecs
# (the NN frame; the match-list JSON, the router's relay of a shard's
# match list and the query request, those two pinned by
# serve.TestRelayAllocationBudget; the update batch and the delta frame
# relay, pinned by serve.TestWriteCodecAllocationBudget)
# the write path (one 16-move ApplyUpdates batch on a shard-sized
# engine; its bytes and allocations are pinned by
# core.TestApplyUpdatesAllocationBudget) and a shard's NN candidate
# stage (one Snapshot.NNCandidates call on the same engine; pinned by
# core.TestNNCandidatesAllocationBudget), a shard's share of a range
# request (one Snapshot.Evaluate of range_ro's question on the same
# engine; pinned by core.TestEvaluateRangeAllocationBudget), a
# checkpoint of that engine and a restore of it (pinned by
# core.TestCheckpointAllocationBudget and TestOpenAllocationBudget),
# and the generator's seeding
# (mcbound.BenchmarkSeed, math/rand's against mcbound.Source). It also
# runs nn.TestRefineAllocationBudget and serve.TestRelayAllocationBudget,
# which print the bytes and allocations of one pooled Refine call at the
# nn_ro shape and of the router's codec work per range_ro reply and
# request.
# `make apicheck` gates the public API surface against api/repro.txt.

GO ?= go

.PHONY: all build test race bench bench-e2e-smoke cluster-smoke soak fuzz-smoke lint apicheck apiupdate

all: build test race

build:
	$(GO) build ./...
	$(GO) vet ./...

test: build
	$(GO) test ./...

# No exception list: every internal package is race-clean.
race:
	$(GO) test -race ./internal/...

# The concurrency surfaces under sustained -race repetition — the CI
# soak job: the continuous-query monitor plus the MVCC snapshot
# overlap tests (slow pinned evaluations racing update floods), the
# buffer pool and the paged engine under concurrent queries and
# updates, and the crash-recovery property sweep (≥100 randomized kill
# points, each recovery checked bit-exact against an uninterrupted
# reference).
soak:
	$(GO) test -race -run Monitor -count=3 ./internal/monitor/...
	$(GO) test -race -run Snapshot -count=3 ./internal/core/
	$(GO) test -race -count=3 ./internal/storage
	$(GO) test -race -count=3 -run 'Paged|ConcurrentUpdatesAndQueries|ConcurrentMixedWorkload' ./internal/core/
	$(GO) test -run 'TestCrashRecoveryProperty|TestCheckpointFaultInjection' -count=3 ./internal/core/

bench: build
	$(GO) test ./internal/bench ./internal/nn ./internal/mcbound ./internal/wire ./internal/serve ./internal/core -run 'TestRefineAllocationBudget|TestRelayAllocationBudget' -v -bench 'BenchmarkRefine|BenchmarkSeed|BenchmarkNNCandidateFrame|BenchmarkEvaluateResponseCodec|BenchmarkUpdatesCodec|BenchmarkRelayFrame|BenchmarkApplyUpdates|BenchmarkNNCandidates|BenchmarkEvaluateRange|BenchmarkCheckpoint|BenchmarkOpen' -benchtime 1s -benchmem

# The end-to-end benchmark (benchmark/, see BENCHMARK.json) is a
# module of its own, so `go build ./... && go test ./...` never
# compiles it; tier-1 only vets it (TestBenchmarkModuleVets). This also
# runs its unit tests plus the short in-process smoke run of every
# workload. Part of the CI test job.
bench-e2e-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .

# Multi-process sharded smoke: boot ildq-router over real ildq-serve
# shard processes, replay a mixed workload through both the fleet and
# a single reference engine, and fail unless every answer is
# bit-exact. The CI sharded job runs this.
cluster-smoke: build
	$(GO) run ./examples/cluster -shards 2 -rounds 3

# Short fuzzing smoke: the R-tree op-stream (min/max payload envelopes
# under copy-on-write versions included) and node-codec targets,
# the WAL frame codec, the NN candidate grid against the linear scan
# it replaced, mcbound.Source against math/rand's source, a shard's NN candidate collection against a brute-force
# scan of its point table, a uniform object's PTI leaf record against
# its table row, the NN candidate frame decoder and the match-list JSON
# scanner (the router's untrusted input from its shards; the scanner is
# also held to json.Unmarshal, and its relay of a reply to the reply),
# the delta frame relay, the checkpoint manifest's extent checks, byte
# flips in the checkpoint's data sections (refused, or tables and
# indexes that agree), the
# request bodies a client sends (the query request's, the NN candidate
# request's and the update batch's decoders held to the json.Decoder
# they replaced, their encoders to json.Marshal), the
# tile-map spec string, the router's delta feed reader (a shard's
# feed stream, untrusted input at the router), and the point and
# rectangle dataset readers.
# Fuzzing runs only here and in the CI fuzz-smoke job; `go test ./...`
# replays the seeds alone.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRTree -fuzztime=30s ./internal/index/rtree
	$(GO) test -fuzz=FuzzNodeRoundTrip -fuzztime=15s ./internal/index/rtree
	$(GO) test -fuzz=FuzzDecodeNode -fuzztime=15s ./internal/index/rtree
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=15s ./internal/wal
	$(GO) test -fuzz=FuzzRefineGrid -fuzztime=15s ./internal/nn
	$(GO) test -fuzz=FuzzSource -fuzztime=15s ./internal/mcbound
	$(GO) test -fuzz=FuzzDecodeNNCandidateSet -fuzztime=15s ./internal/wire
	$(GO) test -fuzz=FuzzCheckpointManifest -fuzztime=15s ./internal/core
	$(GO) test -fuzz=FuzzCheckpointSections -fuzztime=15s ./internal/core
	$(GO) test -fuzz=FuzzNNCandidates -fuzztime=15s ./internal/core
	$(GO) test -fuzz=FuzzLeafRecord -fuzztime=15s ./internal/core
	$(GO) test -fuzz=FuzzDecodeEvaluateResponse -fuzztime=15s ./internal/serve
	$(GO) test -fuzz=FuzzRequestJSON -fuzztime=15s ./internal/serve
	$(GO) test -fuzz=FuzzDecodeUpdatesRequest -fuzztime=15s ./internal/serve
	$(GO) test -fuzz=FuzzRelayDeltaFrame -fuzztime=15s ./internal/serve
	$(GO) test -fuzz=FuzzParseTileSpec -fuzztime=15s ./internal/shard
	$(GO) test -fuzz=FuzzFeedReader -fuzztime=15s ./internal/shard
	$(GO) test -fuzz=FuzzReadPoints -fuzztime=15s ./internal/dataset
	$(GO) test -fuzz=FuzzReadRects -fuzztime=15s ./internal/dataset

# API-surface gate: the public facade (package repro) is a reviewed
# artifact. apicheck regenerates the surface with `go doc -all` and
# fails when it drifts from the checked-in api/repro.txt — growing or
# changing the surface means updating that file in the same PR
# (`make apiupdate`), which makes every surface change a reviewed
# decision. Wired into the CI lint job.
apicheck:
	@$(GO) doc -all . > api/repro.txt.new; \
	if ! diff -u api/repro.txt api/repro.txt.new; then \
		rm -f api/repro.txt.new; \
		echo ""; \
		echo "public API surface drifted from api/repro.txt;"; \
		echo "review the diff above and run 'make apiupdate' to accept."; \
		exit 1; \
	fi; rm -f api/repro.txt.new
	@echo "api surface matches api/repro.txt"

apiupdate:
	$(GO) doc -all . > api/repro.txt

# Mirrors the CI lint job: gofmt, vet, apicheck, and staticcheck when
# installed (CI installs staticcheck@2025.1.1; offline dev
# environments fall back to gofmt+vet+apicheck).
lint: apicheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
