GO ?= go

.PHONY: build test vet race chaos serve-drill reweight-drill overload-drill cache-drill api-check api-snapshot perfbench-check staticcheck govulncheck check bench bench-build bench-build-baseline bench-query bench-query-baseline bench-cache bench-cache-baseline bench-delta bench-delta-baseline

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the deterministic fault-injection suite under the race
# detector: panics, delays, and cancellations fire at every instrumented
# boundary while concurrent clients assert each request still ends in a
# correct answer or a typed error (see DESIGN.md "Failure model"), plus
# the server's exactly-once counting tests (queue timeouts, cancellations,
# queries racing Close, Observer and Telemetry counts against Healthz).
chaos:
	$(GO) test -race -run 'Chaos|CountedOnce|RacingClose|QueueTimeout|ServerWavePanic|Fallback|Degraded|PanicSurfaces|UsableAfterPanic' -count=1 .
	$(GO) test -race -run 'Panic|Inject' -count=1 ./internal/pram ./internal/faultinject

# serve-drill runs the live-telemetry chaos drill end to end: the real
# serve command with fault injection and -listen mounted, scraped over HTTP
# while under load. /metrics must serve strictly parseable Prometheus text
# (counters by outcome, phase histograms with quantile gauges),
# /flightrecorder must hold at least one injected failure event, and a real
# SIGINT must drain gracefully and still print the run summary (see
# DESIGN.md "Live telemetry").
serve-drill:
	$(GO) test -race -run ServeDrill -count=1 -v ./cmd/sepsp

# reweight-drill runs the zero-downtime reweighting drill: the real serve
# command under chaos load with a timer hot-swapping new weights, asserting
# the epoch advances through >= 3 swaps with zero swap-attributable request
# failures, plus the SIGHUP operational-reload path, and a one-edge edit
# whose swap event and log line must report a dirty-node count below the
# tree's node count (incremental repair; see DESIGN.md "Index lifecycle and
# epochs").
reweight-drill:
	$(GO) test -race -run ServeReweight -count=1 -v ./cmd/sepsp

# overload-drill runs the adaptive overload-control drill: the real
# `serve -overload` command scraped over HTTP, asserting the gradient
# limiter converges under 4x sustained overload with injected request latency,
# interactive queries are never browned out while batch queries are
# answered exactly from the fallback engine, and the rebuild circuit
# breaker opens under injected failures then recovers via a half-open
# probe (see DESIGN.md "Overload control").
overload-drill:
	$(GO) test -race -run OverloadDrill -count=1 -v ./cmd/sepsp

# cache-drill runs the result-cache drill: the real `serve -cache-mb` command
# with the load concentrated on a few hot sources, scraped over HTTP. The
# computed-lane count must stay near the hot-set size (single-flight collapses
# concurrent misses), /metrics must expose the sepsp_cache_* families,
# /healthz the cache_* fields, and the run summary the hit rate (see
# DESIGN.md "Result caching").
cache-drill:
	$(GO) test -race -run ServeCacheDrill -count=1 -v ./cmd/sepsp

# api-check gates the public API surface against the committed snapshot
# (api/sepsp.txt): removals and signature changes are breaking, additions
# must be acknowledged by re-recording with api-snapshot.
api-check:
	$(GO) run ./cmd/apicheck -pkg . -snapshot api/sepsp.txt

api-snapshot:
	$(GO) run ./cmd/apicheck -pkg . -snapshot api/sepsp.txt -write

# perfbench-check vets and tests the serving benchmark (perfbench/, its own
# module compiled against this one's internal packages), so a refactor of
# internal/core, internal/separator, internal/baseline or internal/graph
# cannot break the benchmark build unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# staticcheck and govulncheck run as part of `make check` when the tools
# are on PATH. The development container does not bundle them (and policy
# forbids installing ad hoc), so locally an absent tool prints a skip
# notice instead of failing; CI installs both (see .github/workflows/
# ci.yml) and therefore enforces them on every push.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (enforced in CI)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck: not installed, skipping (enforced in CI)"; \
	fi

# check is the tier-1 gate (see README): everything must pass before a
# change lands.
check: vet api-check perfbench-check staticcheck govulncheck test race

bench:
	$(GO) test -bench=. -benchmem ./...

# The bench-* gate targets re-run their experiment and compare against the
# committed baseline. When BENCH_NDJSON_DIR is set, the gate run also
# streams the fresh NDJSON measurement into that directory (gate verdicts
# go to stderr either way) — CI sets it and uploads the directory as a
# workflow artifact, so every push keeps its raw numbers for offline
# comparison against the committed BENCH_*.json.
BENCH_NDJSON_DIR ?=
define bench_gate
$(if $(BENCH_NDJSON_DIR),mkdir -p $(BENCH_NDJSON_DIR) && $(GO) run ./cmd/benchtab -gate $(1) -json > $(BENCH_NDJSON_DIR)/$(2).ndjson,$(GO) run ./cmd/benchtab -gate $(1))
endef

# bench-build runs the build-throughput experiment (E-build) and gates it
# against the recorded baseline BENCH_build.json: counted work must match
# the baseline exactly, build-path allocations must stay within tolerance,
# and the blocked min-plus closure kernel must hold its speedup floor over
# the naive reference on the current machine (see DESIGN.md "Build
# performance"). bench-build-baseline re-records the baseline after an
# intentional kernel change.
bench-build:
	$(call bench_gate,BENCH_build.json,E-build)

bench-build-baseline:
	$(GO) run ./cmd/benchtab -exp E-build -json > BENCH_build.json

# bench-query runs the query-path experiment (E-query) and gates it against
# the recorded baseline BENCH_query.json: executed and pruned counted work
# must match the baseline exactly (and be equal for one and for GOMAXPROCS
# concurrent callers), steady-state query allocations must stay within
# tolerance, the optimized single-source executor must hold its speedup
# floor over the retained naive reference relaxer at the largest n, and
# GOMAXPROCS concurrent callers must scale past their floor on multi-CPU
# runners (see DESIGN.md "Query performance").
# bench-query-baseline re-records the baseline after an intentional kernel
# change.
bench-query:
	$(call bench_gate,BENCH_query.json,E-query)

bench-query-baseline:
	$(GO) run ./cmd/benchtab -exp E-query -json > BENCH_query.json

# bench-cache runs the result-cache experiment (E-cache) and gates it
# against the recorded baseline BENCH_cache.json: the recompute path's
# counted work must match the baseline exactly, a cache hit must stay within
# its absolute allocation budget, hold the >= 10x speedup floor over
# recomputation at the largest n, and return a vector bit-identical to a
# fresh SSSP, and concurrent misses on one source must compute exactly once
# (see DESIGN.md "Result caching"). bench-cache-baseline re-records the
# baseline after an intentional change.
bench-cache:
	$(call bench_gate,BENCH_cache.json,E-cache)

bench-cache-baseline:
	$(GO) run ./cmd/benchtab -exp E-cache -json > BENCH_cache.json

# bench-delta runs the reweight experiment (E-delta) and gates it against the
# recorded baseline BENCH_delta.json: over a chain of versions changing 1,
# 4, 16 and 64 directed edges of a 4096-vertex grid, the incremental repair
# (core.Engine.Reweight, the body of Index.WithWeightsContext) must recompute
# exactly the baseline's dirty nodes with exactly its counted work, stay
# bit-identical to a from-scratch rebuild (every per-node matrix, the E+
# list, the schedule arena, SSSP from 32 sources), and hold a >= 3x CPU
# speedup over the rebuild at 16 edges (see DESIGN.md "Index lifecycle and
# epochs"). bench-delta-baseline re-records the baseline after an
# intentional change.
bench-delta:
	$(call bench_gate,BENCH_delta.json,E-delta)

bench-delta-baseline:
	$(GO) run ./cmd/benchtab -exp E-delta -json > BENCH_delta.json
