GO ?= go
COVER_THRESHOLD ?= 80

.PHONY: check vet build lint test test-engine test-snapshot test-flat race cover bench bench-check bench-json bench-gate bench-smoke bench-wall metrics-smoke chaos chaos-smoke

check: vet build lint test test-engine test-snapshot test-flat race cover bench-check bench-smoke bench-gate metrics-smoke

vet:
	$(GO) vet ./...

# Lint with whatever is installed, in preference order: golangci-lint
# (the CI linter, config in .golangci.yml), then staticcheck, then plain
# go vet plus the gofmt check CI's golangci-lint runs, so the target never
# silently passes on a bare toolchain.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: golangci-lint/staticcheck not installed, falling back to go vet and gofmt"; \
		$(GO) vet ./... || exit 1; \
		unformatted=$$(gofmt -l .); \
		if [ -n "$$unformatted" ]; then echo "lint: gofmt would reformat:"; echo "$$unformatted"; exit 1; fi; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Engine-specific gate: race-check the batched engine and smoke its fuzz
# targets (oracle-differential batch replay, entry-cache invalidation, and
# the POST /query decoder against encoding/json).
test-engine:
	$(GO) test -race ./internal/engine/...
	$(GO) test -run='^$$' -fuzz=FuzzBatchSearch -fuzztime=10s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzEntryCache -fuzztime=10s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzQueryRequest -fuzztime=10s ./cmd/coopserve

# Persistence gate: the snapshot round-trip/corruption suite and the disk
# fault injector's own tests, plus a short fuzz smoke of the snapshot
# decoder (arbitrary bytes must yield a typed error or a valid store,
# never a panic).
test-snapshot:
	$(GO) test ./internal/snapshot ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzFlatMmap -fuzztime=10s ./internal/snapshot

# Flat-layout gate: the 1000-case flat-vs-pointer differential and the
# zero-alloc guards under the race detector, plus short fuzz smokes of the
# freeze round-trip, the bounds-validated blob decoder (hostile bytes:
# typed error or a queryable structure, never a panic), and the frozen
# planar and spatial locators against the pointer ones.
test-flat:
	$(GO) test -race ./internal/flat
	$(GO) test -run='^$$' -fuzz=FuzzFlatFreeze -fuzztime=10s ./internal/flat
	$(GO) test -run='^$$' -fuzz=FuzzFlatDecode -fuzztime=10s ./internal/flat
	$(GO) test -run='^$$' -fuzz=FuzzFrozenLocate -fuzztime=10s ./internal/pointloc
	$(GO) test -run='^$$' -fuzz=FuzzFrozenSpatialLocate -fuzztime=10s ./internal/spatial

race:
	$(GO) test -race ./internal/pram/... ./internal/parallel/... ./internal/workpool/... ./internal/cascade/... ./internal/engine/... ./internal/obs/... ./internal/flat/... ./internal/pointloc/... ./internal/spatial/... ./internal/rangetree/... ./internal/snapshot/... ./internal/segtree/... ./cmd/coopserve/...

# Coverage floor on the paper-critical packages: the core cascaded
# structure, the batch engine, and the instrumentation they publish
# through (the PRAM simulator/profiler and the obs layer). Override with
# COVER_THRESHOLD=NN.
cover:
	$(GO) test -coverprofile=cover.out ./internal/core ./internal/engine ./internal/obs ./internal/pram
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_THRESHOLD) \
		'/^total:/ { sub(/%/, "", $$3); \
		  if ($$3+0 < min) { printf "cover: total %.1f%% below threshold %d%%\n", $$3, min; exit 1 } \
		  else { printf "cover: total %.1f%% (threshold %d%%)\n", $$3, min } }'

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Throughput regression guard: fails when batched execution at b=64 stops
# beating the one-query-at-a-time baseline (see batchguard_test.go).
bench-check:
	$(GO) test -run='^TestBatchThroughputGuard$$' -v .

# Machine-readable benchmark tables: run every experiment and write one
# BENCH_<EXP>.json per experiment (wall time plus instrumented rows).
bench-json:
	$(GO) run ./cmd/coopbench -experiment=all -json

# Benchmark regression gate: regenerate every gated experiment's JSON into
# bench/out and diff it against the committed baselines in bench/baselines.
# Each baseline declares its own keys and metrics with their bounds (see
# internal/benchfmt; the bounds are written in the experiments' column
# declarations in cmd/coopbench). Refresh a baseline by copying its
# bench/out file into bench/baselines.
bench-gate:
	@mkdir -p bench/out
	$(GO) build -o bench/out/coopbench ./cmd/coopbench
	cd bench/out && for e in e17 e18 e20 e23 e24 e25; do ./coopbench -experiment=$$e -json >/dev/null || exit 1; done \
		&& ./coopbench -experiment=e22 -json >/dev/null
	$(GO) run ./cmd/benchdiff -baseline bench/baselines -candidate bench/out

# Zero-alloc smoke: run E22, whose wall column times the native goroutine
# pool, and hold its claim — the flat and wall hot paths allocate nothing
# per query.
# (bench-gate holds the same claim against the committed baseline; this
# target works without one.)
bench-wall:
	@mkdir -p bench/out
	cd bench/out && $(GO) run ../../cmd/coopbench -experiment=e22 -json
	@awk '/"(flat|wall)_allocs_per_op":/ { v=$$2; gsub(/[",]/, "", v); \
		if (v+0 != 0) { print "bench-wall: FAIL: " $$0; bad=1 } } \
		END { if (bad) exit 1; print "bench-wall: zero-alloc hot path confirmed" }' \
		bench/out/BENCH_E22.json

# Executor differential gate: the harnesses asserting that the barrier and
# virtual executors produce identical results, step counts, work, conflict
# verdicts, and fault skip counts — plus one short BenchmarkE17 run
# comparing their wall clocks on the same end-to-end search program, and
# three iterations of every E7 planar and E8 spatial point-location
# benchmark, so their per-query answer checks run, and one run each of
# coopserve's catalog-cold shard build and snapshot load benchmarks.
bench-smoke:
	$(GO) test -run='Executor' ./internal/pram ./internal/parallel ./internal/core
	$(GO) test -run='^$$' -bench='^BenchmarkE17SearchPRAM$$' -benchtime=3x .
	$(GO) test -run='^$$' -bench='^BenchmarkE7PointLocation$$' -benchtime=3x .
	$(GO) test -run='^$$' -bench='^BenchmarkE8Spatial$$' -benchtime=3x .
	$(GO) test -run='^$$' -bench='^Benchmark(BuildShards|LoadSnapshot)$$' -benchtime=1x ./cmd/coopserve

# Observability smoke: the -metrics surfaces must run end to end and
# print the counters the dashboards key on (engine batch counters from
# E20, machine step counters from E17), and the serving telemetry
# families (latency windows, SLO burn rates, flight recorder) must stay
# Prometheus-lint-clean behind a live /metrics endpoint.
metrics-smoke:
	$(GO) run ./cmd/coopbench -experiment=e20 -metrics | grep '^engine\.batches ' >/dev/null
	$(GO) run ./cmd/coopbench -experiment=e17 -metrics | grep '^pram\.steps ' >/dev/null
	$(GO) run ./cmd/coopbench -experiment=e17 -metrics -stepsprofile=steps-smoke.pb.gz \
		| grep '^pram\.phase\.root-coop\.steps ' >/dev/null
	@test -s steps-smoke.pb.gz && rm -f steps-smoke.pb.gz
	$(GO) test -run='^TestMetricsTelemetryFamilies$$' ./cmd/coopserve
	@echo "metrics-smoke: ok"

chaos:
	$(GO) run ./cmd/coopbench -chaos

# Deterministic robustness smoke: the E21 kill/restart/corrupt loop plus a
# real coopserve SIGTERM drain / restore-from-snapshot round trip.
chaos-smoke:
	./scripts/chaos_smoke.sh
