# Developer entry points. `make test` is the tier-1 gate; `make race` adds
# the race detector over the internal packages (including the
# sequential-vs-parallel fsim determinism tests); `make fuzz-smoke` gives
# every differential fuzz target a bounded run on top of the committed seed
# corpora; `make cover-gate` fails if total statement coverage drops below
# the repository baseline; `make bench-json` refreshes the
# BENCH_pipeline.json baseline trajectory; `make bench-smoke` is the cheap CI
# variant (one small circuit, parallel workers); `make bench-parallel` writes
# the BENCH_parallel.json comparison entry against the committed sequential
# baseline; `make bench-kernel` refreshes the BENCH_event.json dense-vs-event
# kernel comparison; `make bench-slab` refreshes the BENCH_slab.json
# dense-vs-event-vs-slab comparison on near-full fault universes; `make
# bench-shard` refreshes the BENCH_shard.json in-process-vs-sharded
# comparison; `make bench-model` refreshes the BENCH_model.json per-fault-model
# kernel comparison (stuck-at vs transition vs bridge); `make bench-check`
# measures a fresh smoke benchmark and gates its deterministic work counters
# against all six committed BENCH baselines
# (wall-clock is advisory; see scripts/bench_compare.go);
# `make serve-smoke` drives `wbist serve` end to end over HTTP (submit, poll,
# cache-hit resubmit, SIGTERM drain; see scripts/serve_smoke.sh); `make
# shard-smoke` byte-compares a crash-injected multi-process pipeline run
# against the in-process baseline (see scripts/shard_smoke.sh); `make
# shell-test` unit-tests the shared shell polling helper
# (scripts/poll_test.sh); `make bench-digests` runs the benchmark module's
# tests and fails unless the held-out seed's compile workloads reproduce the
# committed T and weight-assignment digests (benchmark/testdata/expected.json).

GO ?= go

# The differential fuzz targets of internal/difftest (see README
# "Correctness tooling"). FUZZTIME bounds each target's smoke run.
FUZZ_TARGETS = FuzzRefVsFsim FuzzEventVsDense FuzzSlabVsDense FuzzShardVsDense FuzzFaultFreeVsSim FuzzWgenVsExpansion FuzzBenchRoundTrip FuzzTransitionVsRef FuzzBridgeVsRef
FUZZTIME ?= 10s

.PHONY: all build test race vet fuzz-smoke cover cover-gate bench-json bench-smoke bench-parallel bench-kernel bench-slab bench-shard bench-model bench-check bench-digests serve-smoke shard-smoke shell-test

all: build test race vet

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race -short -count=1 ./internal/...

vet:
	$(GO) vet ./...

fuzz-smoke: build
	@for t in $(FUZZ_TARGETS); do \
		echo "=== $$t ($(FUZZTIME)) ==="; \
		$(GO) test ./internal/difftest -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

cover:
	$(GO) test -count=1 -coverprofile=/tmp/wbist_cover.out ./...
	$(GO) tool cover -func=/tmp/wbist_cover.out | tail -1

cover-gate:
	./scripts/cover_gate.sh

bench-json: build
	$(GO) run ./cmd/experiments -skip-large -workers 1 bench

bench-smoke: build
	$(GO) run ./cmd/experiments -circuits s298 -bench-json /tmp/wbist_bench_smoke.json bench

bench-parallel: build
	$(GO) run ./cmd/experiments -skip-large -bench-json BENCH_parallel.json bench

bench-kernel: build
	$(GO) run ./cmd/experiments kernelbench

bench-slab: build
	$(GO) run ./cmd/experiments slabbench

bench-shard: build
	$(GO) run ./cmd/experiments shardbench

bench-model: build
	$(GO) run ./cmd/experiments -skip-large modelbench

# run.sh exits 0 even when an output digest differs, so the check reads the
# "correct" field of each run's closing JSON line.
bench-digests: build
	cd benchmark && $(GO) test ./...
	@for w in compile-stuck compile-models; do \
		line=$$(bash benchmark/run.sh --workload $$w --seed 2 --seconds 1 --trace 0 | tail -n 1); \
		case "$$line" in \
		*'"correct":true'*) echo "$$w: seed 2 digests match" ;; \
		*) echo "$$w: outputs differ from benchmark/testdata/expected.json: $$line"; exit 1 ;; \
		esac; \
	done

serve-smoke: build
	./scripts/serve_smoke.sh

shard-smoke: build
	./scripts/shard_smoke.sh

shell-test:
	./scripts/poll_test.sh

bench-check: build
	$(GO) run ./cmd/experiments -circuits s298 -bench-json /tmp/wbist_bench_fresh.json bench
	$(GO) run ./scripts/bench_compare.go -mode pipeline -baseline BENCH_pipeline.json -fresh /tmp/wbist_bench_fresh.json
	$(GO) run ./scripts/bench_compare.go -mode pipeline -baseline BENCH_parallel.json -fresh /tmp/wbist_bench_fresh.json
	$(GO) run ./cmd/experiments -circuits s27,s298 -kernel-json /tmp/wbist_kernel_fresh.json kernelbench
	$(GO) run ./scripts/bench_compare.go -mode kernel -baseline BENCH_event.json -fresh /tmp/wbist_kernel_fresh.json
	$(GO) run ./cmd/experiments -circuits s27,s298 -slab-json /tmp/wbist_slab_fresh.json slabbench
	$(GO) run ./scripts/bench_compare.go -mode slab -baseline BENCH_slab.json -fresh /tmp/wbist_slab_fresh.json
	$(GO) run ./cmd/experiments -circuits s298 -shard-json /tmp/wbist_shard_fresh.json shardbench
	$(GO) run ./scripts/bench_compare.go -mode shard -baseline BENCH_shard.json -fresh /tmp/wbist_shard_fresh.json
	$(GO) run ./cmd/experiments -circuits s298 -model-json /tmp/wbist_model_fresh.json modelbench
	$(GO) run ./scripts/bench_compare.go -mode model -baseline BENCH_model.json -fresh /tmp/wbist_model_fresh.json
