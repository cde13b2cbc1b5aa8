# AzureBench reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint lint-sarif lint-debt test test-bench race race-live trace-smoke fuzz-smoke results quick scenarios scenarios-live examples check clean

all: build vet lint test

# Everything CI's check job runs.
check: build vet lint test test-bench race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bin/azlint is rebuilt only when the linter's own sources change, not on
# every lint run. Fixtures under testdata/ are test inputs, not inputs to
# the binary.
AZLINT_SRCS := $(shell find internal/analysis cmd/azlint -name '*.go' -not -path '*/testdata/*') go.mod

bin/azlint: $(AZLINT_SRCS)
	$(GO) build -o bin/azlint ./cmd/azlint

# Run the azlint analyzer suite (see DESIGN.md §8) over every package.
# Fails on any diagnostic not covered by a reasoned //azlint:allow.
lint: bin/azlint
	bin/azlint ./...

# Machine-readable findings for code-scanning upload.
lint-sarif: bin/azlint
	bin/azlint -sarif -o azlint.sarif ./...

# Suppression-debt trend: //azlint:allow directives per analyzer.
# TestSuppressionDebtCeiling pins the ceilings.
lint-debt: bin/azlint
	bin/azlint -debt ./...

# Short native-fuzz smoke runs (go test -fuzz takes one package at a time).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeEntity -fuzztime=10s ./internal/odata
	$(GO) test -run='^$$' -fuzz=FuzzHistogramMerge -fuzztime=10s ./internal/metrics
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotCodec -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzQueueScript -fuzztime=10s ./internal/queuestore
	$(GO) test -run='^$$' -fuzz=FuzzTableScript -fuzztime=10s ./internal/tablestore
	$(GO) test -run='^$$' -fuzz=FuzzParseFilter -fuzztime=10s ./internal/tablestore
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/scenario

test:
	$(GO) test ./...

# bench/ (the BENCHMARK.json harness) is its own Go module, so the root
# `go test ./...` does not reach its tests.
test-bench:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./...

# Concentrated -race pass over the live-mode packages — the ones where
# real goroutines race over shared state (HTTP emulator, SDK retries,
# storage engines, histogram merging). -count=2 reruns each test so
# lazily-initialised state is also exercised warm.
race-live:
	$(GO) test -race -count=2 ./internal/rest/ ./internal/sdk/ \
		./internal/blobstore/ ./internal/queuestore/ ./internal/tablestore/ \
		./internal/cachestore/ ./internal/storecommon/ ./internal/metrics/ \
		./internal/liverun/

# End-to-end aztrace smoke: capture a traced faults run, then require a
# non-empty critical-path reconstruction (the trees must be complete and
# the chains must carry stage attributions).
trace-smoke:
	$(GO) build -o bin/azurebench ./cmd/azurebench
	$(GO) build -o bin/aztrace ./cmd/aztrace
	bin/azurebench -quick -experiment faults -tracefile bin/trace-smoke.jsonl >/dev/null
	bin/aztrace summary bin/trace-smoke.jsonl | grep -q 'causal trees: complete'
	bin/aztrace critpath -n 1 bin/trace-smoke.jsonl | tee bin/trace-smoke.txt | grep -q 'critical path'
	test -s bin/trace-smoke.txt

# Regenerate every table and figure at paper scale (~2 min).
results:
	$(GO) run ./cmd/azurebench -experiment all -csv | tee results_full.txt

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

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf bin
