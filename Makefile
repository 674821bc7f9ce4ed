# Local developer workflow, mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race behaviour determinism corpus fuzz lint bench ledger trace-diff fmt-check ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite, uncached, without -short or the race
## detector: the lane that runs what -short skips (TestAllocBudgets, the
## behavioural checks over seeds, the slow scenarios)
test:
	$(GO) test -count=1 ./...

## race: run the short test suite under the race detector (the CI lane)
race:
	$(GO) test -race -short ./...

## behaviour: the behavioural checks that claim over seeds 1-48; they skip
## under -short, so `race` does not run them (`test` does).
## TestColdFitPathsPinnedDigests rides along (it also runs under -short)
behaviour:
	$(GO) test -run '^(TestSLODetectAccuracy|TestAvailabilityAcceptance|TestPhasesShape|TestColdFitPathsPinnedDigests)$$' -count=1 ./internal/experiments

## determinism: the determinism matrix — every 'Deterministic' test and the
## classifier's batch-against-per-row worker-matrix tests, pinned to one OS
## thread, then under the default scheduler
DETERMINISM_RUN = 'Deterministic|PerRowReference'
DETERMINISM_PKGS = ./internal/experiments ./internal/par ./internal/serve ./internal/classify
determinism:
	GOMAXPROCS=1 $(GO) test -run $(DETERMINISM_RUN) -count=1 $(DETERMINISM_PKGS)
	$(GO) test -run $(DETERMINISM_RUN) -count=1 $(DETERMINISM_PKGS)

## FUZZ_TARGETS: every fuzz target, as name:package
FUZZ_TARGETS = \
	FuzzEventLineMatchesReference:./internal/obs \
	FuzzSymEigMatchesJacobi:./internal/cf \
	FuzzSourceMatchesMathRand:./internal/sim \
	FuzzSparseMatchesMap:./internal/cf \
	FuzzJournalEntryMatchesJSON:./internal/serve \
	FuzzQuasarUnmarshalSnapshot:./internal/core \
	FuzzSubmitBody:./internal/serve
FUZZTIME ?= 30s

## corpus: replay every fuzz target's committed seed corpus as a regression
## suite (no live fuzzing)
corpus:
	@set -ex; for t in $(FUZZ_TARGETS); do \
		$(GO) test -run "^$${t%%:*}$$" -count=1 "$${t#*:}"; \
	done

## fuzz: live-fuzz every target in turn for FUZZTIME each (the CI budget is
## 30s), looking for fresh counterexamples
fuzz:
	@set -ex; for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t%%:*}$$" -fuzztime $(FUZZTIME) "$${t#*:}"; \
	done

## lint: gofmt, go vet, and the repository's own static-analysis suite
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/quasar-lint ./...

## bench: run the repository benchmarks — one iteration of every paper
## artifact at the scale quasar-bench prints (BenchmarkArtifacts/<name>, one
## sub-benchmark per experiments.Artifacts() entry), then every benchmark under
## internal/ with -benchmem. The second line selects by package, not by name,
## so a new benchmark cannot be missed. They are: the classifier's inner loops
## (BenchmarkTrain must stay flat in the number of rows, BenchmarkTrainWarm
## times a warm refit against a cold one; a retrain point is a freeze plus a
## fit, and BenchmarkFreeze times only the freeze's copy; BenchmarkTopK is the
## fit's SVD seed at the end-of-day scale-up shape, and BenchmarkSymEig its
## cubic term; BenchmarkFoldIn is one arrival's fold-in; BenchmarkNodePerf is
## paid per node per tick; BenchmarkSeedLibrary seeds sim_day_mixed's 84-row
## offline library, paid once per world build), the oracle target sweep at 8
## and 100 nodes (BenchmarkOracleBestCompletion: paid per targeted batch
## arrival) and one arrival's instance generation (BenchmarkUniverseNew: a
## targeted Hadoop job, a service, a single-node job and a best-effort one),
## one ground-truth node rate with its affinity lookup among the 14 EC2
## platforms (BenchmarkNodeRate: paid per node by every oracle sweep, probe
## and tick), the random streams:
## minting one builds no register (BenchmarkNewRNG, BenchmarkStream), a typical
## stream is minted and drawn 19 times (BenchmarkStreamDraws: paid per
## workload), and SGD's shuffle runs on a built register (BenchmarkShuffle),
## one event-queue Step at 16 and 5 000 pending events (BenchmarkEngineStep:
## paid per simulated event), the scheduler: a full, settled ranking of a
## packed cluster through the index and the scan oracle (BenchmarkRank) and
## one decision in sim_scale_churn's shape, which reads only the top of its
## ranking (BenchmarkSchedule), one replayed journal entry of serve_replay's mix
## through JournalReader.Next next to the encoding/json decode it falls back
## to (BenchmarkJournalNext), one tick over a fixed live set behind 0 and
## 10 000 completed tasks, which should cost the same (BenchmarkTickHistory),
## and one 185-candidate decision event line of serve_replay's value mix
## (BenchmarkAppendScheduleDecision). CI's bench job runs each of them once.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/...

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
##   topk   the scale row with each schedule decision's candidate ranking
##          capped at the 8 best plus the picked servers (-trace-topk 8)
TRACE_DIFF_base  := -horizon 6000
TRACE_DIFF_chaos := -horizon 6000 -faults internal/chaos/testdata/storm.json
TRACE_DIFF_slo   := -horizon 6000 -slo -faults internal/chaos/testdata/storm.json
TRACE_DIFF_scale := -servers 1000 -gap 0.02 -horizon 260 -hadoop 0 -spark 0 -storm 0 \
	-services 20 -single 480 -besteffort 9500
TRACE_DIFF_topk  := $(TRACE_DIFF_scale) -trace-topk 8
# Reader flags per row (the slo row replays the alert timeline).
TRACE_DIFF_READ_slo := -alerts
ROWS ?= base chaos slo scale topk
# Where a row leaves its two trace files.
TRACE_DIFF_DIR ?= /tmp

trace-diff: $(addprefix trace-diff-,$(ROWS))

trace-diff-%:
	$(if $(TRACE_DIFF_$*),,$(error unknown trace-diff row '$*' (rows: base chaos slo scale topk)))
	$(GO) run ./cmd/quasar-sim $(TRACE_DIFF_$*) -trace $(TRACE_DIFF_DIR)/quasar-$*.jsonl >/dev/null
	$(GO) run ./cmd/quasar-sim $(TRACE_DIFF_$*) -trace-buffer -trace $(TRACE_DIFF_DIR)/quasar-$*-buf.jsonl >/dev/null
	cmp $(TRACE_DIFF_DIR)/quasar-$*.jsonl $(TRACE_DIFF_DIR)/quasar-$*-buf.jsonl
	$(GO) run ./cmd/quasar-trace $(TRACE_DIFF_READ_$*) $(TRACE_DIFF_DIR)/quasar-$*.jsonl

## fmt-check: fail if any file needs gofmt
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## ci: everything the CI pipeline runs, except the jobs that stay CI-only:
## race-full (the whole suite under -race), trace-diff (`make trace-diff`
## runs it locally), live fuzzing (`make fuzz`) and bench (`make bench`
## runs it locally)
ci: fmt-check build lint race test determinism corpus
