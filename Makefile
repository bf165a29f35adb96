GO ?= go
COVER_THRESHOLD ?= 80

.PHONY: check vet build lint test test-engine test-snapshot test-flat race cover bench bench-check bench-json bench-diff bench-smoke bench-wall bench-build bench-restore bench-telemetry metrics-smoke chaos chaos-smoke

check: vet build lint test test-engine test-snapshot test-flat race cover bench-check bench-smoke bench-wall bench-build bench-restore bench-telemetry metrics-smoke

vet:
	$(GO) vet ./...

# Lint with whatever is installed, in preference order: golangci-lint
# (the CI linter, config in .golangci.yml), then staticcheck, then plain
# go vet so the target never silently passes on a bare toolchain.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: golangci-lint/staticcheck not installed, falling back to go vet"; \
		$(GO) vet ./...; \
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
# freeze round-trip and the bounds-validated blob decoder (hostile bytes:
# typed error or a queryable structure, never a panic).
test-flat:
	$(GO) test -race ./internal/flat
	$(GO) test -run='^$$' -fuzz=FuzzFlatFreeze -fuzztime=10s ./internal/flat
	$(GO) test -run='^$$' -fuzz=FuzzFlatDecode -fuzztime=10s ./internal/flat

race:
	$(GO) test -race ./internal/pram/... ./internal/parallel/... ./internal/workpool/... ./internal/cascade/... ./internal/engine/... ./internal/obs/... ./internal/flat/...

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

# Benchmark regression gate: regenerate the gated experiments' JSON into
# bench/out and diff against the committed baselines in bench/baselines.
# Step metrics (E17 machine/phase steps, E18 adversary rounds) are
# deterministic and diff exact by default; E20 throughput gets generous
# slack for scheduling noise. Tune with BENCH_STEP_TOL / BENCH_THR_TOL;
# refresh baselines by copying bench/out/*.json into bench/baselines.
BENCH_STEP_TOL ?= 0
BENCH_THR_TOL ?= 0.35
BENCH_WALL_TOL ?= 3.0
BENCH_BUILD_TOL ?= 3.0
BENCH_RESTORE_TOL ?= 3.0
BENCH_TELEMETRY_TOL ?= 0.5
bench-diff:
	@mkdir -p bench/out
	$(GO) build -o bench/out/coopbench ./cmd/coopbench
	cd bench/out && ./coopbench -experiment=e17 -json >/dev/null \
		&& ./coopbench -experiment=e18 -json >/dev/null \
		&& ./coopbench -experiment=e20 -json >/dev/null \
		&& ./coopbench -experiment=e22 -executor=wall -json >/dev/null \
		&& ./coopbench -experiment=e23 -json >/dev/null \
		&& ./coopbench -experiment=e24 -json >/dev/null \
		&& ./coopbench -experiment=e25 -json >/dev/null
	$(GO) run ./cmd/benchdiff -baseline bench/baselines -candidate bench/out \
		-step-tol $(BENCH_STEP_TOL) -throughput-tol $(BENCH_THR_TOL) -wall-tol $(BENCH_WALL_TOL) \
		-build-tol $(BENCH_BUILD_TOL) -restore-tol $(BENCH_RESTORE_TOL) \
		-telemetry-tol $(BENCH_TELEMETRY_TOL)

# Wall-executor smoke: run E22 on the native goroutine pool and hold the
# tentpole claim — the flat and wall hot paths allocate nothing per query.
# (bench-diff holds the same claim against the committed baseline; this
# target works without one.)
bench-wall:
	@mkdir -p bench/out
	cd bench/out && $(GO) run ../../cmd/coopbench -experiment=e22 -executor=wall -json
	@awk '/"(flat|wall)_allocs_per_op":/ { v=$$2; gsub(/[",]/, "", v); \
		if (v+0 != 0) { print "bench-wall: FAIL: " $$0; bad=1 } } \
		END { if (bad) exit 1; print "bench-wall: zero-alloc hot path confirmed" }' \
		bench/out/BENCH_E22.json

# Build-throughput smoke: run E23 (sequential vs parallel construction)
# and diff it against the committed baseline under BENCH_BUILD_TOL. The
# speedup column is informational — the baseline is taken on a single-core
# box, so multi-core runs only ever improve it — while build/freeze wall
# times are gated with the same generous slack as the E22 latencies.
bench-build:
	@mkdir -p bench/out
	cd bench/out && $(GO) run ../../cmd/coopbench -experiment=e23 -json
	$(GO) run ./cmd/benchdiff -baseline bench/baselines -candidate bench/out \
		-build-tol $(BENCH_BUILD_TOL) e23

# Snapshot cold-start smoke: run E24 (per-backend restore latency and
# pinned heap across the mmap / deserialized / refrozen paths) and diff
# it against the committed baseline under BENCH_RESTORE_TOL. The mmap
# rows are the claim a coopserve -flat restart rides on: reopening the
# sidecar must stay cheap and near-zero-heap however large the frozen
# structures grow.
bench-restore:
	@mkdir -p bench/out
	cd bench/out && $(GO) run ../../cmd/coopbench -experiment=e24 -json
	$(GO) run ./cmd/benchdiff -baseline bench/baselines -candidate bench/out \
		-restore-tol $(BENCH_RESTORE_TOL) e24

# Executor differential gate: the harnesses asserting that the barrier and
# virtual executors produce identical results, step counts, work, conflict
# verdicts, and fault skip counts — plus one short BenchmarkE17 run
# comparing their wall clocks on the same end-to-end search program.
bench-smoke:
	$(GO) test -run='Executor' ./internal/pram ./internal/parallel ./internal/core
	$(GO) test -run='^$$' -bench='^BenchmarkE17SearchPRAM$$' -benchtime=3x .

# Serving-telemetry smoke: run E25 (flight recorder + latency windows on
# vs off over identical batches) and diff the overhead ratio against the
# committed baseline under BENCH_TELEMETRY_TOL. The ratio is
# machine-normalized (both arms run here), so unlike the raw ns columns
# the slack prices measurement noise only.
bench-telemetry:
	@mkdir -p bench/out
	cd bench/out && $(GO) run ../../cmd/coopbench -experiment=e25 -json
	$(GO) run ./cmd/benchdiff -baseline bench/baselines -candidate bench/out \
		-telemetry-tol $(BENCH_TELEMETRY_TOL) e25

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
