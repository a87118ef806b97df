# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go
FUZZTIME ?= 10s

# Stress divisor for the race run: the detector slows execution ~10x,
# so shrink the stress loops by the same factor (see internal/testenv).
RACE_STRESS_DIV ?= 10

# Restrict the lfcheck analyzers: make lint CHECKS=refbalance,abaguard
CHECKS ?=
LFCHECK_FLAGS := $(if $(CHECKS),-checks $(CHECKS))

# Incremental result cache for the analyzers; warm runs re-analyze only
# packages whose sources (or in-module deps, or analyzer versions)
# changed. Point LFCHECK_CACHE elsewhere or empty it to disable.
LFCHECK_CACHE ?= .lfcheck-cache
LFCHECK_CACHE_FLAGS := $(if $(LFCHECK_CACHE),-cache $(LFCHECK_CACHE))

# Serving defaults: make serve / make loadgen (see scripts/smoke.sh for
# the scripted end-to-end version CI runs).
ADDR ?= 127.0.0.1:11311
BACKEND ?= skiplist
# gc or ebr
MODE ?= ebr
CONNS ?= 64
LOAD_DURATION ?= 10s
PROTOCOL ?= text

.PHONY: build test race lint lint-json lint-sarif lint-debt lint-strict \
	fuzz-short fmt-check bench-quick serve loadgen smoke chaos durability \
	bench-build bench-test

build:
	$(GO) build ./...

# bench-build compiles and vets the benchmark's own module (bench/, which
# `go build ./...` does not reach). bench/layers imports internal/
# packages, so a changed signature there fails here instead of failing
# the next benchmark run.
bench-build:
	GOWORK=off GOFLAGS=-buildvcs=false $(GO) build -C bench ./...
	GOWORK=off GOFLAGS=-buildvcs=false $(GO) vet -C bench ./...

# bench-test runs the benchmark module's own tests, which `go test ./...`
# does not reach: among them TestReplayServerAndModelAgree, which checks
# a real valoisd's replies — RANGE included — against the benchmark's
# oracle.
bench-test:
	GOWORK=off GOFLAGS=-buildvcs=false $(GO) test -C bench ./...

test:
	$(GO) test ./...

race:
	VALOIS_STRESS_DIV=$(RACE_STRESS_DIV) $(GO) test -race -count=1 ./internal/...

# lint = the stock vet pass, the gofmt check, and the lock-free
# invariant analyzers (cmd/lfcheck), cache-warm on repeat runs.
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/lfcheck $(LFCHECK_FLAGS) $(LFCHECK_CACHE_FLAGS) ./...

# Machine-readable findings for CI consumers; same exit convention.
lint-json:
	$(GO) run ./cmd/lfcheck $(LFCHECK_FLAGS) $(LFCHECK_CACHE_FLAGS) -json ./...

lint-sarif:
	$(GO) run ./cmd/lfcheck $(LFCHECK_FLAGS) $(LFCHECK_CACHE_FLAGS) -sarif ./...

# lint-debt inventories every //lfcheck:allow suppression (check, reason,
# file age) so accepted analyzer debt stays a tracked number. Always
# exits 0; add JSON=1 for machine-readable output.
lint-debt:
	$(GO) run ./cmd/lfcheck -debt $(if $(JSON),-json) ./...

# lint-strict is the CI gate for suppression hygiene: the inventory plus
# an analysis run, failing on directives that are malformed or stale
# (suppressing nothing — their finding was fixed, so the excuse must go
# before it hides a future one).
lint-strict:
	$(GO) run ./cmd/lfcheck -debt -strict $(LFCHECK_CACHE_FLAGS) ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench-quick runs the free-list contention experiment (E10) and the
# memory-mode comparison (E11) at reduced iterations — a CI-speed
# regression check that the striped free list still beats the single head
# and that mode=ebr traversal stays below rc with zero leaked cells. The
# tables in EXPERIMENTS.md are from the full run:
# GOMAXPROCS=2 go run ./cmd/lfbench -format markdown
bench-quick:
	$(GO) run ./cmd/lfbench -e E10,E11 -quick -d 50ms

fuzz-short:
	$(GO) test -run='^$$' -fuzz=FuzzDictionarySemantics -fuzztime=$(FUZZTIME) ./internal/dict
	$(GO) test -run='^$$' -fuzz=FuzzParseCommand -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz=FuzzReadReply -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz=FuzzCommandRoundTrip -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz=FuzzRESPCommand -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz=FuzzRESPRoundTrip -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz=FuzzAOFRecord -fuzztime=$(FUZZTIME) ./internal/persist

# serve runs valoisd in the foreground; stop it with Ctrl-C or SIGTERM
# (both drain in-flight requests before exiting).
serve:
	$(GO) run ./cmd/valoisd -addr $(ADDR) -backend $(BACKEND) -mode $(MODE)

# loadgen drives a running valoisd (see `make serve`) closed-loop and
# exits nonzero on any error. It measures nothing: numbers come from
# `bash bench/run.sh`.
loadgen:
	$(GO) run ./cmd/lfload -addr $(ADDR) -conns $(CONNS) -d $(LOAD_DURATION) \
		-protocol $(PROTOCOL)

# smoke builds both binaries, boots the server on an ephemeral loopback
# port, sustains $(CONNS) connections, then checks SIGTERM drains to
# exit 0.
smoke:
	SMOKE_CONNS=$(CONNS) SMOKE_BACKEND=$(BACKEND) SMOKE_MODE=$(MODE) \
		sh scripts/smoke.sh

# durability runs the persistence layer end to end, race-enabled: the
# AOF/snapshot unit and torn-tail tests, the snapshot-under-mutation
# scans, the in-process recovery round-trips, and the crash-restart
# chaos matrix (SIGKILL a real valoisd mid-run, restart from disk,
# check the merged history for linearizability — see
# internal/server/crashrestart_test.go).
durability:
	VALOIS_STRESS_DIV=$(RACE_STRESS_DIV) $(GO) test -race -count=1 ./internal/persist
	VALOIS_STRESS_DIV=$(RACE_STRESS_DIV) $(GO) test -race -count=1 -timeout 15m \
		-run 'TestCrashRestart|TestServerRecovery|TestServerSnapshot|TestServerPersistStats' \
		./internal/server

# chaos runs the fault-injection suite race-enabled: every served backend ×
# memory mode through the faultnet proxy with client histories checked
# for wire-level linearizability, plus the deadline / max-conns / panic
# hardening tests (DESIGN.md §8). Failures print the replay seed.
chaos:
	$(GO) test -race -count=1 ./internal/faultnet
	VALOIS_STRESS_DIV=$(RACE_STRESS_DIV) $(GO) test -race -count=1 -timeout 15m \
		-run 'TestChaos|TestWireLinearizable|TestSlowLoris|TestIdleTimeout|TestMaxConns|TestPanicIsolation|TestRetry|TestTransient|TestFatalProto' \
		./internal/server ./internal/client
