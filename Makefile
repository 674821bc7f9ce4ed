# Local developer workflow, mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint bench ledger trace-diff fmt-check ci

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

## bench: run the repository benchmarks — one iteration of every paper
## artifact, then the classifier's inner loops (BenchmarkTrain must stay flat
## in the number of rows; a retrain point is a freeze plus a fit, and
## BenchmarkFreeze times only the freeze's copy; BenchmarkTopK
## is the fit's SVD seed at the end-of-day scale-up shape, and BenchmarkSymEig
## its cubic term; BenchmarkNodePerf is paid per node per tick), the
## oracle target sweep at 8 and 100 nodes (BenchmarkOracleBestCompletion:
## paid per targeted batch arrival) and one arrival's instance generation
## (BenchmarkUniverseNew: a targeted Hadoop job, a service and a single-node
## job), then the
## random streams: minting one builds no register (BenchmarkNewRNG,
## BenchmarkStream), a typical stream is minted and drawn 19 times
## (BenchmarkStreamDraws: paid per workload), and SGD's shuffle runs on a
## built register (BenchmarkShuffle), then the scheduler: a full, settled
## ranking of a packed cluster through the index and the scan oracle
## (BenchmarkRank) and one decision in sim_scale_churn's shape, which reads
## only the top of its ranking (BenchmarkSchedule), then one replayed journal
## entry of serve_replay's mix through JournalReader.Next next to the
## encoding/json decode it falls back to (BenchmarkJournalNext). These are
## all of the repository's benchmarks; CI's bench job runs each once.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench='^Benchmark(Train|Freeze|TopK|SymEig|NodePerf|OracleBestCompletion|UniverseNew)$$' -run=^$$ ./internal/cf ./internal/classify ./internal/workload
	$(GO) test -bench='^Benchmark(NewRNG|Stream|StreamDraws|Shuffle)$$' -benchmem -run=^$$ ./internal/sim
	$(GO) test -bench='^Benchmark(Rank|Schedule)$$' -benchmem -run=^$$ ./internal/sched
	$(GO) test -bench='^BenchmarkJournalNext$$' -benchmem -run=^$$ ./internal/serve

## ledger: the performance ledger — every bench/ workload untraced x3 and
## traced once, with the per-layer split (see bench/README.md)
ledger:
	bash bench/run.sh -ledger -repeats 3

## trace-diff: the trace byte-identity contract, one table row per scenario
## (all rows by default; `make trace-diff ROWS=slo` or `make trace-diff-slo`
## runs one). A row runs quasar-sim twice — streamed, and buffered
## (-trace-buffer) — `cmp`s the two files, and has quasar-trace read the
## result back. The rows:
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
# Where a row leaves its two trace files.
TRACE_DIFF_DIR ?= /tmp

trace-diff: $(addprefix trace-diff-,$(ROWS))

trace-diff-%:
	$(if $(TRACE_DIFF_$*),,$(error unknown trace-diff row '$*' (rows: base chaos slo scale)))
	$(GO) run ./cmd/quasar-sim $(TRACE_DIFF_$*) -trace $(TRACE_DIFF_DIR)/quasar-$*.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim $(TRACE_DIFF_$*) -trace-buffer -trace $(TRACE_DIFF_DIR)/quasar-$*-buf.jsonl >/dev/null
	cmp $(TRACE_DIFF_DIR)/quasar-$*.jsonl $(TRACE_DIFF_DIR)/quasar-$*-buf.jsonl
	$(GO) run ./cmd/quasar-trace $(TRACE_DIFF_READ_$*) $(TRACE_DIFF_DIR)/quasar-$*.jsonl

## fmt-check: fail if any file needs gofmt
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## ci: everything the CI pipeline runs
ci: fmt-check build lint race
