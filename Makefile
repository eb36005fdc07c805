GO ?= go

# Pinned staticcheck release (must support the toolchain in go.mod).
# CI installs exactly this version; locally the target runs whatever
# `staticcheck` is on PATH and skips with an install hint otherwise.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check fmt vet staticcheck print-staticcheck-version build test race bench bench-ab docs-check demo chaos fuzz-short cover-resultstore bench-module

# The full tier-1 gate: formatting, vet, staticcheck, build, tests
# (race-enabled — the scheduler/simd coalescing paths are explicitly
# concurrent), docs, deterministic fuzz passes, the result-store
# coverage floor, and the benchmark module's own vet and tests.
check: fmt vet staticcheck build race docs-check fuzz-short cover-resultstore bench-module

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# CI reads the pin from here so the Makefile stays the single source
# of truth for the staticcheck version.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Docs gate: the three docs exist and are linked from the README, every
# relative markdown link in README + docs/ resolves, the usage comments
# of cmd/simd and cmd/simsched list exactly the flags each registers
# (the per-command flag count is printed), docs/API.md names exactly
# the routes simd serves and the metric families simd and simsched
# render (the MatchAPIDoc tests), and gofmt/vet cover the result-store
# package the docs describe.
USAGE_CMDS = simd simsched
docs-check:
	@for f in docs/ARCHITECTURE.md docs/API.md docs/OPERATIONS.md; do \
		test -f "$$f" || { echo "docs-check: missing $$f"; exit 1; }; \
		grep -q "$$f" README.md || { echo "docs-check: README.md does not link $$f"; exit 1; }; \
	done
	@fail=0; for f in README.md docs/*.md; do \
		dir=$$(dirname "$$f"); \
		for link in $$(grep -oE '\]\([^)[:space:]]+\)' "$$f" | sed -e 's/^](//' -e 's/)$$//' -e 's/#.*//'); do \
			case "$$link" in http://*|https://*|mailto:*|"") continue ;; esac; \
			test -e "$$dir/$$link" || { echo "docs-check: $$f links missing $$link"; fail=1; }; \
		done; \
	done; exit $$fail
	@fail=0; tmp=$$(mktemp -d); for cmd in $(USAGE_CMDS); do \
		f=cmd/$$cmd/main.go; \
		grep -oE 'flag\.[A-Za-z0-9]+\("[^"]+"' $$f | sed -E 's/.*\("//; s/"$$//' | sort -u > $$tmp/registered; \
		awk '/^\/\/ Usage:/ {u = 1; next} u && /^\/\/\t/ {s = 1; print; next} s {exit}' $$f \
			| grep -oE '(^|[[ ])-[a-z][a-z0-9-]*' | sed -E 's/^[[ ]?-//' | sort -u > $$tmp/documented; \
		for fl in $$(comm -23 $$tmp/registered $$tmp/documented); do \
			echo "docs-check: $$f registers -$$fl but its usage comment omits it"; fail=1; done; \
		for fl in $$(comm -13 $$tmp/registered $$tmp/documented); do \
			echo "docs-check: $$f usage comment lists -$$fl, which is not registered"; fail=1; done; \
		echo "docs-check: $$cmd registers $$(wc -l < $$tmp/registered) flags"; \
	done; rm -r $$tmp; exit $$fail
	@out="$$(gofmt -l pkg/resultstore)"; if [ -n "$$out" ]; then \
		echo "docs-check: gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./pkg/resultstore/...
	$(GO) test -run 'MatchAPIDoc$$' ./internal/simd ./pkg/scheduler

# Tier-1 benchmarks with allocation accounting; raw output passes
# through and the parsed results land in BENCH_results.json.
BENCH_TIER1 = ^(BenchmarkSimulatorThroughput|BenchmarkTable1Config|BenchmarkTraceCacheAccess|BenchmarkSchedulerDispatch|BenchmarkDecodeResultView|BenchmarkDecodeResult|BenchmarkEngineRunShort|BenchmarkEngineRunCold)$$
# Each rung gets a benchtime that fits its scale: the ~100 ms simulator
# loop and the ~1 s cold-length suite run a fixed 3 iterations, while
# the microsecond rungs and the ~60 ms short-run sweep run for 2 s so
# connection setup, timer noise and GC amortise away.
BENCH_SIM  = ^(BenchmarkSimulatorThroughput|BenchmarkTable1Config|BenchmarkEngineRunCold)$$
BENCH_FAST = ^(BenchmarkTraceCacheAccess|BenchmarkSchedulerDispatch|BenchmarkDecodeResultView|BenchmarkDecodeResult|BenchmarkEngineRunShort)$$

# Separate steps, not a pipe: a benchmark build/run failure must fail
# the target instead of being masked by benchjson's exit status.
bench:
	$(GO) test -run NONE -bench '$(BENCH_SIM)' -benchmem -benchtime 3x . ./pkg/frontendsim > BENCH_raw.out
	$(GO) test -run NONE -bench '$(BENCH_FAST)' -benchmem -benchtime 2s . ./pkg/scheduler ./pkg/frontendsim >> BENCH_raw.out
	$(GO) run ./cmd/benchjson -o BENCH_results.json < BENCH_raw.out && rm -f BENCH_raw.out

# Paired A/B of the simulator rungs (BENCH_SIM at 3x) and of
# BenchmarkEngineRunShort (at make bench's 2s; its runs have the length
# of a warm-suite or mixed-open prefill run) against revision REV: REV
# is exported with git archive under .bench_build/ab, both sides' test
# binaries are built once, and COUNT pairs run with the side that goes
# first alternating.  benchjson then prints, per benchmark, each side's
# median [q1–q3] of ns/op, the ratio of the medians (working tree over
# REV) and the pairs the working tree won.  A/A check:
# `make bench-ab REV=HEAD COUNT=6` on a clean tree.
REV ?= HEAD
COUNT ?= 10
AB = .bench_build/ab
BENCH_AB_SHORT = ^BenchmarkEngineRunShort$$
bench-ab:
	rm -rf $(AB) && mkdir -p $(AB)/base
	git archive $(REV) | tar -x -C $(AB)/base
	$(GO) test -c -o $(AB)/new.root.test .
	$(GO) test -c -o $(AB)/new.fsim.test ./pkg/frontendsim
	cd $(AB)/base && $(GO) test -c -o ../base.root.test . && $(GO) test -c -o ../base.fsim.test ./pkg/frontendsim
	@for i in $$(seq 1 $(COUNT)); do \
		if [ $$((i % 2)) -eq 1 ]; then sides="base new"; else sides="new base"; fi; \
		for s in $$sides; do \
			if [ $$s = base ]; then dir=$(AB)/base; else dir=.; fi; \
			echo "pair $$i: $$s"; \
			(cd $$dir && $(CURDIR)/$(AB)/$$s.root.test -test.run NONE -test.bench '$(BENCH_SIM)' -test.benchmem -test.benchtime 3x -test.timeout 30m) >> $(AB)/$$s.out || exit 1; \
			(cd $$dir/pkg/frontendsim && $(CURDIR)/$(AB)/$$s.fsim.test -test.run NONE -test.bench '$(BENCH_SIM)' -test.benchmem -test.benchtime 3x -test.timeout 30m) >> $(AB)/$$s.out || exit 1; \
			(cd $$dir/pkg/frontendsim && $(CURDIR)/$(AB)/$$s.fsim.test -test.run NONE -test.bench '$(BENCH_AB_SHORT)' -test.benchmem -test.benchtime 2s -test.timeout 30m) >> $(AB)/$$s.out || exit 1; \
		done; \
	done
	$(GO) run ./cmd/benchjson $(AB)/base.out $(AB)/new.out

# Fast regression gate: the short tier-1 benchmarks, the AllocsPerRun
# tests that pin the zero-allocation interval pipeline, and the pinned
# cycles/op expectation for BenchmarkSimulatorThroughput (committed in
# cycles_pin_test.go alongside the golden fixtures).
bench-short:
	$(GO) test -run 'ZeroAlloc|SteadyStateAllocs' -v ./internal/sim
	$(GO) test -run 'SimulatorThroughputCyclesPinned' -v .
	$(GO) test -run NONE -bench '$(BENCH_TIER1)' -benchmem -benchtime 1x . ./pkg/scheduler ./pkg/frontendsim

bench-full:
	$(GO) test -bench=. -benchtime=1x .

# bench/ is a Go module of its own (replace repro => ../), so the root
# `go vet ./...` and `go test ./...` never reach it; vet and test it in
# place.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Headless end-to-end demo: the distributed serving tier through every
# failure mode (failover, cache tiers, fleet restart, self-managing
# ring).  Exits non-zero if the lifecycle leaks a client-visible error,
# so CI runs it as an integration smoke test.
demo:
	$(GO) run ./examples/distributed

# Deterministic fuzz smoke: 10 seconds of native fuzzing per target —
# disk segment replay (differential against an independent reference
# decoder), the request JSON round trip through the canonical key,
# suite keys derived from one template encoding (against RequestKey and
# SuiteRequest.Validate), and the result view decoder (differential
# against encoding/json; its seeds are kilobyte-sized result bodies, so
# minimization is capped to leave the budget to fuzzing).
# Catches framing and canonicalization regressions in CI without the
# open-ended runtime of a real fuzz campaign; run `go test -fuzz
# <target> <package>` with no -fuzztime to hunt for longer.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentReplay$$' -fuzztime $(FUZZTIME) ./pkg/resultstore
	$(GO) test -run '^$$' -fuzz '^FuzzRequestKey$$' -fuzztime $(FUZZTIME) ./pkg/frontendsim
	$(GO) test -run '^$$' -fuzz '^FuzzSuiteKeys$$' -fuzztime $(FUZZTIME) ./pkg/frontendsim
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeView$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./pkg/frontendsim

# Coverage floor for the store package: every backend rides one
# conformance suite, so coverage here is cheap to keep and expensive to
# lose.  Writes coverage-resultstore.out for CI to upload.
RESULTSTORE_COVER_MIN ?= 85
cover-resultstore:
	$(GO) test -coverprofile=coverage-resultstore.out ./pkg/resultstore/
	@total=$$($(GO) tool cover -func=coverage-resultstore.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "pkg/resultstore coverage: $$total% (floor $(RESULTSTORE_COVER_MIN)%)"; \
	awk "BEGIN{exit !($$total >= $(RESULTSTORE_COVER_MIN))}" || { \
		echo "cover-resultstore: coverage $$total% is below the $(RESULTSTORE_COVER_MIN)% floor"; exit 1; }

# Seeded chaos integration suite: an in-process simd fleet
# (internal/fleet) behind fault-injecting proxies (latency spikes,
# injected 500s, a flapping backend) driven through the real scheduler
# — zero client-visible errors in strict mode, correct PARTIAL-ERROR
# accounting in degraded mode, passive quarantine before any probe
# round, 503 + Retry-After shedding from a saturated backend, a
# degraded store tier, a replica that rejoins with an empty store and
# recomputes its slice, and one that restarts over its own disk store
# and serves its slice warm.
chaos:
	$(GO) test -run TestChaos -v ./internal/chaos
