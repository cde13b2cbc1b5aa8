# AzureBench reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint test test-bench race race-live trace-smoke fuzz-smoke results results-check width-smoke quick scenarios scenarios-live examples unreached check clean

all: build vet lint test

# Everything CI's check job runs.
check: build vet lint test test-bench race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bin/azlint is rebuilt only when the linter's own sources change, not on
# every lint run. Tests, the atest fixture harness and the fixtures under
# testdata/ are test inputs, not inputs to the binary.
AZLINT_SRCS := $(shell find internal/analysis cmd/azlint -name '*.go' -not -name '*_test.go' \
	-not -path '*/testdata/*' -not -path '*/atest/*') go.mod

bin/azlint: $(AZLINT_SRCS)
	$(GO) build -o bin/azlint ./cmd/azlint

# Run the azlint analyzer suite (see DESIGN.md §8) over every package.
# Fails on any diagnostic not covered by a reasoned //azlint:allow; how
# many of those the tree may carry is pinned by TestSuppressionDebtCeiling.
lint: bin/azlint
	bin/azlint ./...

# Short native-fuzz smoke runs (go test -fuzz takes one package at a time).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeEntity -fuzztime=10s ./internal/odata
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotCodec -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzQueueScript -fuzztime=10s ./internal/queuestore
	$(GO) test -run='^$$' -fuzz=FuzzTableScript -fuzztime=10s ./internal/tablestore
	$(GO) test -run='^$$' -fuzz=FuzzParseFilter -fuzztime=10s ./internal/tablestore
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/scenario
	$(GO) test -run='^$$' -fuzz=FuzzReadJSONL -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzServeHTTP -fuzztime=10s ./internal/rest
	$(GO) test -run='^$$' -fuzz=FuzzQueueMessageBody -fuzztime=10s ./internal/xmlwire
	$(GO) test -run='^$$' -fuzz=FuzzMessagesList -fuzztime=10s ./internal/xmlwire
	$(GO) test -run='^$$' -fuzz=FuzzExecProgram -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzEventQueue -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzLoadSection -fuzztime=10s ./internal/cloud

test:
	$(GO) test ./...

# bench/ (the BENCHMARK.json harness) is its own Go module, so the root
# `go test ./...` does not reach its tests.
test-bench:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# Concentrated -race pass over the live-mode packages — the ones where
# real goroutines race over shared state (HTTP emulator and its latency
# histograms, SDK retries, storage engines). -count=2 reruns each test so
# lazily-initialised state is also exercised warm.
race-live:
	$(GO) test -race -count=2 ./internal/rest/ ./internal/sdk/ \
		./internal/blobstore/ ./internal/queuestore/ ./internal/tablestore/ \
		./internal/cachestore/ ./internal/storecommon/ ./internal/liverun/

# End-to-end aztrace smoke: capture a traced faults run, then require a
# non-empty critical-path reconstruction (the trees must be complete — no
# orphan, no span ID twice, no child before its parent — and the chains
# must carry stage attributions). The flash-crowd scenario's open arrivals
# share clients and retry, so its trees must come out complete too. Every
# subcommand then runs twice over the same faults trace (diff against a
# seed-2 run) and each pair of outputs must be byte-identical: the tools'
# own determinism on a real trace, which the unit tests' synthetic traces
# do not reach.
TRACE_CMDS := summary critpath tail flame chrome
trace-smoke:
	$(GO) build -o bin/azurebench ./cmd/azurebench
	$(GO) build -o bin/aztrace ./cmd/aztrace
	bin/azurebench -quick -experiment faults -tracefile bin/trace-smoke.jsonl >/dev/null
	bin/aztrace summary bin/trace-smoke.jsonl | grep -q 'causal trees: complete'
	bin/azurebench -quick -scenario examples/scenarios/flashcrowd.yaml -tracefile bin/trace-crowd.jsonl >/dev/null
	bin/aztrace summary bin/trace-crowd.jsonl | grep -q 'causal trees: complete'
	bin/aztrace critpath -n 1 bin/trace-smoke.jsonl | tee bin/trace-smoke.txt | grep -q 'critical path'
	test -s bin/trace-smoke.txt
	bin/azurebench -quick -seed 2 -experiment faults -tracefile bin/trace-smoke2.jsonl >/dev/null
	for i in 1 2; do \
		for c in $(TRACE_CMDS); do bin/aztrace $$c bin/trace-smoke.jsonl > bin/trace-$$c-$$i.out || exit 1; done; \
		bin/aztrace diff bin/trace-smoke.jsonl bin/trace-smoke2.jsonl > bin/trace-diff-$$i.out || exit 1; \
	done
	for c in $(TRACE_CMDS) diff; do cmp bin/trace-$$c-1.out bin/trace-$$c-2.out || exit 1; done

# Regenerate every table and figure at paper scale (≈ 15 s on two cores;
# GOMAXPROCS=1 is the serial run, ≈ 27 s). The last line on stderr is the
# run's own wall time against the sum of its experiments'.
results:
	$(GO) run ./cmd/azurebench -experiment all -csv | tee results_full.txt

# Is the committed results_full.txt what this tree produces? Wall-time
# lines aside, it must be, at whatever GOMAXPROCS this runs under.
results-check:
	$(GO) build -o bin/azurebench ./cmd/azurebench
	bin/azurebench -experiment all -csv | grep -v "wall time" > bin/results-check.txt
	grep -v "wall time" results_full.txt | diff - bin/results-check.txt

# The run's bytes must not depend on its width: stdout, digests and CSV of
# the whole quick suite, and -telemetry/-statsfile output of two experiments
# that attach samplers and partition records, at GOMAXPROCS 1 against 4.
# The experiments that read points another one simulates in a full run
# must digest the same run alone.
width-smoke:
	$(GO) build -o bin/azurebench ./cmd/azurebench
	for p in 1 4; do \
		GOMAXPROCS=$$p bin/azurebench -quick -csv -digest | grep -v "wall time" > bin/width-$$p.txt || exit 1; \
		GOMAXPROCS=$$p bin/azurebench -quick -experiment fig6,hotspot -telemetry -statsfile bin/width-$$p.jsonl \
			| grep -v "wall time" > bin/width-tel-$$p.txt || exit 1; \
	done
	diff bin/width-1.txt bin/width-4.txt
	diff bin/width-tel-1.txt bin/width-tel-4.txt
	cmp bin/width-1.jsonl bin/width-4.jsonl
	for e in fig5 fig9 netmodel ablation; do \
		bin/azurebench -quick -digest -experiment $$e | grep "^digest $$e " > bin/width-alone.txt || exit 1; \
		grep "^digest $$e " bin/width-4.txt | diff - bin/width-alone.txt || exit 1; \
	done

quick:
	$(GO) run ./cmd/azurebench -quick

# Run the declarative scenario library at quick scale with SLO gating —
# the local mirror of the CI scenario matrix (exits non-zero on any SLO
# failure).
scenarios:
	$(GO) run ./cmd/azurebench -quick -digest -scenario-dir examples/scenarios

# The same scenario files against a live emulator — the local mirror of
# the CI scenario-live job. These six are the library's specs that ask
# nothing of the simulator (no params/faults/checkpoint). The SLO exit
# code is the gate; azurestore must then drain and exit 0 on SIGTERM.
# (The SDK retries refused connections, which covers server start-up.)
LIVE_ADDR := 127.0.0.1:10000
LIVE_SCENARIOS := ycsb-a ycsb-b ycsb-c ycsb-e bursttrain diurnal
scenarios-live:
	$(GO) build -o bin/azurebench ./cmd/azurebench
	$(GO) build -o bin/azurestore ./cmd/azurestore
	bin/azurestore -addr $(LIVE_ADDR) & pid=$$!; rc=0; \
	for s in $(LIVE_SCENARIOS); do \
		bin/azurebench -quick -live http://$(LIVE_ADDR) -scenario examples/scenarios/$$s.yaml || rc=1; \
	done; \
	kill -TERM $$pid; wait $$pid; drained=$$?; \
	echo "azurebench exit $$rc, azurestore exit $$drained"; \
	test $$rc -eq 0 -a $$drained -eq 0

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bagoftasks -workers 6 -tasks 30
	$(GO) run ./examples/gisoverlay -cells 24
	$(GO) run ./examples/mapreduce -workers 6 -points 6000 -iters 8
	$(GO) run ./examples/livestore

# Which functions does no front door reach? Build the four commands, the
# examples and the bench/ harness with coverage counters over the whole
# module, drive every front door (azlint over ./... included), and print
# each function still at 0 % — the measurement a deletion is decided on
# (ROADMAP item 4). The pattern must be azurebench/...:
# -coverpkg=./internal/... silently matches nothing for these mains.
# Takes minutes; not part of `make check`. What it lists of
# internal/analysis (four per-package analyzers and their framework) are
# the paths that run only while a finding is being reported; the tree is
# clean, so only the fixture tests reach them.
U := bin/unreached
COVBUILD := $(GO) build -cover -coverpkg=azurebench/...
unreached:
	rm -rf $(U) && mkdir -p $(U)/cov
	for c in azurebench azurestore aztrace azlint; do $(COVBUILD) -o $(U)/$$c ./cmd/$$c || exit 1; done
	for e in quickstart bagoftasks gisoverlay mapreduce livestore; do $(COVBUILD) -o $(U)/ex-$$e ./examples/$$e || exit 1; done
	cd bench && $(COVBUILD) -o ../$(U)/azbench .
	set -e; export GOCOVERDIR=$(U)/cov; \
	$(U)/azurebench -list >/dev/null; \
	$(U)/azurebench -quick -csv -digest -o $(U)/out >/dev/null; \
	$(U)/azurebench -quick -workers 1,2 >/dev/null; \
	$(U)/azurebench -quick -digest -scenario-dir examples/scenarios >/dev/null; \
	$(U)/azurebench -scenario bench/sim-closedloop.yaml >/dev/null; \
	$(U)/azurebench -quick -trace -scenario examples/scenarios/ycsb-c.yaml >/dev/null; \
	$(U)/azurebench -quick -trace -tracefile $(U)/all.jsonl -telemetry -statsfile $(U)/stats.jsonl >/dev/null; \
	$(U)/azurebench -quick -experiment faults -tracefile $(U)/a.jsonl >/dev/null; \
	$(U)/azurebench -quick -seed 2 -experiment faults -tracefile $(U)/b.jsonl >/dev/null; \
	$(U)/azurebench -quick -experiment faults -checkpoint-at 6s -checkpoint-file $(U)/faults.azsnap >/dev/null; \
	$(U)/azurebench -quick -restore $(U)/faults.azsnap >/dev/null; \
	$(U)/azurebench -quick -experiment georepl -checkpoint-at 12s -checkpoint-file $(U)/georepl.azsnap >/dev/null; \
	$(U)/azurebench -quick -restore $(U)/georepl.azsnap >/dev/null; \
	for c in summary critpath tail chrome flame; do $(U)/aztrace $$c $(U)/a.jsonl >/dev/null; done; \
	$(U)/aztrace diff $(U)/a.jsonl $(U)/b.jsonl >/dev/null; \
	$(U)/azlint ./...; \
	$(U)/azurestore -debug -addr $(LIVE_ADDR) & pid=$$!; \
	for s in $(LIVE_SCENARIOS); do \
		$(U)/azurebench -quick -live http://$(LIVE_ADDR) -scenario examples/scenarios/$$s.yaml >/dev/null; \
	done; \
	curl -fsS http://$(LIVE_ADDR)/healthz >/dev/null; \
	curl -fsS http://$(LIVE_ADDR)/metricsz >/dev/null; \
	curl -fsS http://$(LIVE_ADDR)/stats >/dev/null; \
	curl -sS -o /dev/null http://$(LIVE_ADDR)/nowhere; \
	curl -sS -o /dev/null -X PATCH http://$(LIVE_ADDR)/queue/; \
	curl -sS -o /dev/null -X PUT -d x http://$(LIVE_ADDR)/blob/unreached/logs/; \
	kill -TERM $$pid; wait $$pid; \
	$(U)/ex-quickstart >/dev/null; \
	$(U)/ex-bagoftasks -workers 6 -tasks 30 >/dev/null; \
	$(U)/ex-gisoverlay -cells 24 >/dev/null; \
	$(U)/ex-mapreduce -workers 6 -points 6000 -iters 8 >/dev/null; \
	$(U)/ex-livestore >/dev/null; \
	for w in sim-figures sim-closedloop live-table-ycsb live-bagoftasks; do \
		$(U)/azbench --workload $$w --seed 7 --seconds 2 --trace 1 >/dev/null; \
	done
	$(GO) tool covdata textfmt -i=$(U)/cov -o $(U)/cover.all
	grep -v '^azurebench/bench/' $(U)/cover.all > $(U)/cover.txt
	$(GO) tool cover -func=$(U)/cover.txt | awk '$$NF == "0.0%"' | tee $(U)/unreached.txt
	@echo "$$(wc -l < $(U)/unreached.txt) functions unreached (list kept in $(U)/unreached.txt)"

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf bin
