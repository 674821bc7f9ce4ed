# Local developer workflow, mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint lint-hotpath bench ledger bench-alloc bench-parallel bench-obs bench-chaos bench-slo bench-scale bench-obs-scale bench-obs-scale-quick bench-serve bench-serve-quick serve-smoke telemetry-smoke trace-diff trace-diff-chaos trace-diff-slo trace-diff-scale trace-diff-stream fmt-check ci

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
## artifact, then the classifier's two inner loops (BenchmarkTrain must stay
## flat in the number of rows; BenchmarkNodePerf is paid per node per tick)
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='^Benchmark(Train|NodePerf)$$' -run=^$$ ./internal/cf ./internal/classify

## ledger: the performance ledger — every bench/ workload untraced x3 and
## traced once, with the per-layer split (see bench/README.md)
ledger:
	bash bench/run.sh -ledger -repeats 3

## bench-alloc: measure allocs/op on the hot roots, refresh BENCH_alloc.json,
## and fail on any count over its committed budget
bench-alloc:
	$(GO) run ./cmd/quasar-bench -allocbench-out BENCH_alloc.json allocbench

## bench-parallel: time sequential vs parallel fan-out, refresh BENCH_parallel.json
bench-parallel:
	$(GO) run ./cmd/quasar-bench -parbench-out BENCH_parallel.json parbench

## bench-obs: time a scenario with the tracer off vs on, refresh BENCH_obs.json
bench-obs:
	$(GO) run ./cmd/quasar-bench -obsbench-out BENCH_obs.json obsbench

## bench-chaos: time a scenario with the detector off vs on vs under the fault storm, refresh BENCH_chaos.json
bench-chaos:
	$(GO) run ./cmd/quasar-bench -chaosbench-out BENCH_chaos.json chaosbench

## bench-slo: time a scenario with the SLO engine off vs on, refresh BENCH_slo.json
bench-slo:
	$(GO) run ./cmd/quasar-bench -slobench-out BENCH_slo.json slobench

## bench-scale: sweep cluster sizes (100 -> 10k servers), time indexed vs
## full-scan scheduling and calendar vs heap event cores, refresh
## BENCH_scale.json, and fail below the scaling contract
bench-scale:
	$(GO) run ./cmd/quasar-bench -scalebench-out BENCH_scale.json scalebench

## bench-obs-scale: time the at-scale scenario untraced vs streaming-traced
## (1k and 10k servers), refresh BENCH_obs_scale.json, and fail over the 10%
## trace-overhead budget or on unbounded tracer memory
bench-obs-scale:
	$(GO) run ./cmd/quasar-bench -obsscale-out BENCH_obs_scale.json obsscale

## bench-obs-scale-quick: the CI smoke variant (one small point, no baseline refresh)
bench-obs-scale-quick:
	$(GO) run ./cmd/quasar-bench -quick -obsscale-out /tmp/quasar-obs-scale-quick.json obsscale

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

## trace-diff: assert the trace is byte-identical across worker counts
trace-diff:
	$(GO) run ./cmd/quasar-sim -horizon 4000 -workers 1 -trace /tmp/quasar-trace-w1.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim -horizon 4000 -workers 4 -trace /tmp/quasar-trace-w4.jsonl >/dev/null
	cmp /tmp/quasar-trace-w1.jsonl /tmp/quasar-trace-w4.jsonl
	$(GO) run ./cmd/quasar-trace /tmp/quasar-trace-w1.jsonl

## trace-diff-chaos: same contract under an injected fault storm
trace-diff-chaos:
	$(GO) run ./cmd/quasar-sim -horizon 6000 -workers 1 -faults internal/chaos/testdata/storm.json -trace /tmp/quasar-chaos-w1.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim -horizon 6000 -workers 4 -faults internal/chaos/testdata/storm.json -trace /tmp/quasar-chaos-w4.jsonl >/dev/null
	cmp /tmp/quasar-chaos-w1.jsonl /tmp/quasar-chaos-w4.jsonl
	$(GO) run ./cmd/quasar-trace /tmp/quasar-chaos-w1.jsonl

## trace-diff-slo: same contract with SLO monitoring and burn-rate alerting on
trace-diff-slo:
	$(GO) run ./cmd/quasar-sim -horizon 6000 -workers 1 -slo -faults internal/chaos/testdata/storm.json -trace /tmp/quasar-slo-w1.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim -horizon 6000 -workers 4 -slo -faults internal/chaos/testdata/storm.json -trace /tmp/quasar-slo-w4.jsonl >/dev/null
	cmp /tmp/quasar-slo-w1.jsonl /tmp/quasar-slo-w4.jsonl
	$(GO) run ./cmd/quasar-trace -alerts /tmp/quasar-slo-w1.jsonl

## trace-diff-scale: same contract at scale (1k servers, 10k workloads)
trace-diff-scale:
	$(GO) run ./cmd/quasar-sim -servers 1000 -gap 0.02 -horizon 260 -hadoop 0 -spark 0 -storm 0 \
		-services 20 -single 480 -besteffort 9500 -workers 1 -trace /tmp/quasar-scale-w1.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim -servers 1000 -gap 0.02 -horizon 260 -hadoop 0 -spark 0 -storm 0 \
		-services 20 -single 480 -besteffort 9500 -workers 4 -trace /tmp/quasar-scale-w4.jsonl >/dev/null
	cmp /tmp/quasar-scale-w1.jsonl /tmp/quasar-scale-w4.jsonl
	$(GO) run ./cmd/quasar-trace /tmp/quasar-scale-w1.jsonl

## trace-diff-stream: assert the streaming sink's file is byte-identical to
## the buffered exporter's, and worker-invariant, on the same scenario
trace-diff-stream:
	$(GO) run ./cmd/quasar-sim -horizon 6000 -workers 1 -trace /tmp/quasar-stream-w1.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim -horizon 6000 -workers 1 -trace-buffer -trace /tmp/quasar-stream-buf.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim -horizon 6000 -workers 4 -trace /tmp/quasar-stream-w4.jsonl >/dev/null
	cmp /tmp/quasar-stream-w1.jsonl /tmp/quasar-stream-buf.jsonl
	cmp /tmp/quasar-stream-w1.jsonl /tmp/quasar-stream-w4.jsonl
	$(GO) run ./cmd/quasar-trace /tmp/quasar-stream-w1.jsonl

## fmt-check: fail if any file needs gofmt
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## ci: everything the CI pipeline runs
ci: fmt-check build lint race
