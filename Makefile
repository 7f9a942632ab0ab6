# Developer entry points. `make test` is the tier-1 gate (it includes the
# exact s298 pipeline work-counter pin of internal/expt); `make race` adds
# the race detector over the internal packages (including the
# sequential-vs-parallel fsim determinism tests), in shuffled test order so
# that no test leans on state an earlier test left behind; `make fuzz-smoke` gives
# every differential fuzz target a bounded run on top of the committed seed
# corpora; `make cover-gate` fails if total statement coverage drops below
# the repository baseline; `make bench-digests` runs the benchmark module's
# tests and fails unless the compile workloads and grade-session of seed 1
# and of the held-out seed 2 reproduce the committed digests (T and weight
# assignments, detection records; benchmark/testdata/expected.json);
# `make serve-digests` does the same for the serve-mix workload, whose jobs
# run the pipeline through `wbist serve` on more circuits (about 10 s a
# seed); `make serve-smoke` drives `wbist serve` end to end over HTTP (submit, poll,
# cache-hit resubmit, SIGTERM drain; see scripts/serve_smoke.sh); `make
# shell-test` unit-tests the shell polling helper that serve_smoke.sh
# sources (scripts/poll_test.sh). Performance numbers come from
# `bash benchmark/run.sh` (end to end, per layer) and
# `go test -bench Kernel ./internal/fsim` (the kernel per fault model, and
# the slab lane-width sweep).

GO ?= go

# The differential fuzz targets of internal/difftest (see README
# "Correctness tooling"). FUZZTIME bounds each target's smoke run.
FUZZ_TARGETS = FuzzRefVsFsim FuzzSlabVsDense FuzzFaultFreeVsSim FuzzWgenVsExpansion FuzzBenchRoundTrip FuzzTransitionVsRef FuzzBridgeVsRef FuzzRedundantVsRef
FUZZTIME ?= 10s

.PHONY: all build test race vet fuzz-smoke cover cover-gate bench-digests serve-digests serve-smoke shell-test

all: build test race vet

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race -short -count=1 -shuffle=on ./internal/...

# vet also fails if any Go file is not gofmt-formatted. benchmark/ is a
# separate module, so the root `go vet ./...` does not reach it.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	test -z "$$(gofmt -l .)"

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

# run.sh exits 0 even when an output digest differs, so the check reads the
# "correct" field of each run's closing JSON line.
bench-digests: build
	cd benchmark && $(GO) test ./...
	@for s in 1 2; do \
		for w in compile-stuck compile-models grade-session; do \
			line=$$(bash benchmark/run.sh --workload $$w --seed $$s --seconds 1 --trace 0 | tail -n 1); \
			case "$$line" in \
			*'"correct":true'*) echo "$$w: seed $$s digests match" ;; \
			*) echo "$$w seed $$s: outputs differ from benchmark/testdata/expected.json: $$line"; exit 1 ;; \
			esac; \
		done; \
	done

serve-digests: build
	@for s in 1 2; do \
		line=$$(bash benchmark/run.sh --workload serve-mix --seed $$s --seconds 1 --trace 0 | tail -n 1); \
		case "$$line" in \
		*'"correct":true'*) echo "serve-mix: seed $$s digests match" ;; \
		*) echo "serve-mix seed $$s: outputs differ from benchmark/testdata/expected.json: $$line"; exit 1 ;; \
		esac; \
	done

serve-smoke: build
	./scripts/serve_smoke.sh

shell-test:
	./scripts/poll_test.sh
