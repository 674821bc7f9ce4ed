# Local developer workflow, mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint lint-hotpath bench ledger bench-alloc bench-serve bench-serve-quick serve-smoke telemetry-smoke trace-diff fmt-check ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the short test suite under the race detector (the CI lane)
race:
	$(GO) test -race -short ./...

## lint: gofmt, go vet, and the repository's own static-analysis suite
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/quasar-lint ./...

## lint-hotpath: the hot-path static-analysis suite alone, machine-readable
lint-hotpath:
	$(GO) run ./cmd/quasar-lint -json ./...

## bench: run the repository benchmarks — one iteration of every paper
## artifact, then the classifier's inner loops (BenchmarkTrain must stay flat
## in the number of rows and BenchmarkSymEig is its cubic term;
## BenchmarkNodePerf is paid per node per tick)
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='^Benchmark(Train|SymEig|NodePerf)$$' -run=^$$ ./internal/cf ./internal/classify

## ledger: the performance ledger — every bench/ workload untraced x3 and
## traced once, with the per-layer split (see bench/README.md)
ledger:
	bash bench/run.sh -ledger -repeats 3

## bench-alloc: measure allocs/op on the hot roots, refresh BENCH_alloc.json,
## and fail on any count over its committed budget
bench-alloc:
	$(GO) run ./cmd/quasar-bench -allocbench-out BENCH_alloc.json allocbench

## serve-smoke: end-to-end serve-mode self-test — live daemon + warm standby
## tailing its journal, scripted HTTP client with wall-clock jitter, graceful
## shutdown, then byte-identity and snapshot-verification checks
serve-smoke:
	$(GO) run ./cmd/quasar-serve -selftest

## telemetry-smoke: serve-mode telemetry end to end — live daemon, /metrics
## scrape (RED series + operational gauges), live /v1/trace/stream tail, and
## request-ID correlation between the admission API, /debug/requests, and the
## streamed serve.apply events
telemetry-smoke:
	$(GO) run ./cmd/quasar-serve -telemetry-smoke

## bench-serve: drive a live daemon with closed-loop clients, measure the warm
## failover gap, refresh BENCH_serve.json, and fail below the 10k req/s floor
## (in-process transport: the committed baseline isolates admission cost from
## kernel TCP on the 1-CPU baseline host)
bench-serve:
	$(GO) run ./cmd/quasar-load -bench -inprocess -out BENCH_serve.json

## bench-serve-quick: the CI smoke variant (short phases, rate gate waived)
bench-serve-quick:
	$(GO) run ./cmd/quasar-load -bench -quick -inprocess

## trace-diff: the trace byte-identity contract, one table row per scenario
## (all rows by default; `make trace-diff ROWS=slo` or `make trace-diff-slo`
## runs one). A row runs quasar-sim three times — streamed at -workers 1,
## streamed at -workers 4, buffered (-trace-buffer) at -workers 1 — `cmp`s the
## three files, and has quasar-trace read the result back. The rows:
##   base   the default mix
##   chaos  under the injected fault storm
##   slo    SLO monitoring and burn-rate alerting on, under the same storm
##   scale  1k servers, 10k workloads
TRACE_DIFF_base  := -horizon 6000
TRACE_DIFF_chaos := -horizon 6000 -faults internal/chaos/testdata/storm.json
TRACE_DIFF_slo   := -horizon 6000 -slo -faults internal/chaos/testdata/storm.json
TRACE_DIFF_scale := -servers 1000 -gap 0.02 -horizon 260 -hadoop 0 -spark 0 -storm 0 \
	-services 20 -single 480 -besteffort 9500
# Reader flags per row (the slo row replays the alert timeline).
TRACE_DIFF_READ_slo := -alerts
ROWS ?= base chaos slo scale
# Where a row leaves its three trace files.
TRACE_DIFF_DIR ?= /tmp

trace-diff: $(addprefix trace-diff-,$(ROWS))

trace-diff-%:
	$(if $(TRACE_DIFF_$*),,$(error unknown trace-diff row '$*' (rows: base chaos slo scale)))
	$(GO) run ./cmd/quasar-sim $(TRACE_DIFF_$*) -workers 1 -trace $(TRACE_DIFF_DIR)/quasar-$*-w1.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim $(TRACE_DIFF_$*) -workers 4 -trace $(TRACE_DIFF_DIR)/quasar-$*-w4.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim $(TRACE_DIFF_$*) -workers 1 -trace-buffer -trace $(TRACE_DIFF_DIR)/quasar-$*-buf.jsonl >/dev/null
	cmp $(TRACE_DIFF_DIR)/quasar-$*-w1.jsonl $(TRACE_DIFF_DIR)/quasar-$*-w4.jsonl
	cmp $(TRACE_DIFF_DIR)/quasar-$*-w1.jsonl $(TRACE_DIFF_DIR)/quasar-$*-buf.jsonl
	$(GO) run ./cmd/quasar-trace $(TRACE_DIFF_READ_$*) $(TRACE_DIFF_DIR)/quasar-$*-w1.jsonl

## fmt-check: fail if any file needs gofmt
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## ci: everything the CI pipeline runs
ci: fmt-check build lint race
