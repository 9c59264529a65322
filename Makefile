# Tiered verification for the ATIS reproduction.
#
#   make test   — tier 1: build + unit tests (the seed gate)
#   make lint   — atislint: the project-specific analyzers for the
#                 invariants no runtime test can carry (today lockscope:
#                 mutex-guarded fields only under their lock).
#                 `-format sarif` for code scanning. Pool pairing,
#                 context polling, span lifecycle and snapshot
#                 immutability are carried by runtime tests (README,
#                 "Static analysis"), and the hot paths' allocation
#                 freedom by the AllocsPerRun gates: run
#                 `go test -run 'ZeroAlloc|AllocCeiling|HotpathGateRegistry' ./...`
#                 without -race (the gates skip under it).
#   make check  — tier 2: vet + lint + full suite under the race
#                 detector, exercising the concurrent query engine
#                 (pooled workspaces, route cache, batch fan-out)
#   make fuzz-short — 30-second bursts of every fuzz target (graphio
#                 reader, quel parser, pqueue heap invariant, the HTTP
#                 query-string scan)
#   make bench  — regenerate the concurrent-engine benchmarks behind
#                 its row of the benchmark history in CHANGES.md
#   make bench-telemetry — search kernel with telemetry off vs on; the
#                 delta is the Recorder hook's cost (target < 2%), see
#                 its row of the benchmark history in CHANGES.md
#   make bench-ch — contraction-hierarchy suite: preprocessing and
#                 structural-pass cost (the structural pass at workers=1
#                 beside the default, with their within-run ratio),
#                 cached-index query vs
#                 dijkstra/astar/alt, and the mutate-then-rebuild cycle,
#                 see its row of the benchmark history in CHANGES.md
#   make bench-admission — request-lifecycle suite: ctx-polling overhead
#                 per kernel (base vs ctx in one run, target < 2%) and
#                 the admission gate's grant/shed fast paths, see
#                 its row of the benchmark history in CHANGES.md
#   make bench-customize — CCH metric-customization suite: re-pricing a
#                 cached topology (k=30/48/64/100; k=48 is atisbench's
#                 grid) vs full structural preprocessing at the same k,
#                 plus the sustained snapshot-publishing traffic-stream
#                 cycle,
#                 see its row of the benchmark history in CHANGES.md
#   make bench-trace — span-tracing suite: instrumented kernels with
#                 tracing disabled vs fully sampled (target: 0 extra
#                 allocs and < 1% when disabled), see its row of the
#                 benchmark history in CHANGES.md
#   make bench-http — a /v1/route request through Handler().ServeHTTP
#                 (middleware, admission, route service, encoding) on a
#                 route-cache hit and a miss, on a service past 100
#                 publishes, see its row of the benchmark history in
#                 CHANGES.md
#   make bench-lint — time the atislint run over the module
#                 (type-check excluded)
#   make bench-snapshot — reader latency under a sustained mutation
#                 stream on the lock-free snapshot read path (target:
#                 reader p99 within 10% of idle), see its row of the
#                 benchmark history in CHANGES.md
#   make loc    — non-test Go lines per package directory and in total,
#                 excluding testdata/ and the atisbench/ module: the
#                 code-size number the deletion ledger in CHANGES.md quotes

GO ?= go
FUZZTIME ?= 30s

.PHONY: build test vet lint race check loc fuzz-short bench bench-paper bench-telemetry bench-ch bench-admission bench-customize bench-trace bench-http bench-lint bench-snapshot

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/atislint .

race:
	$(GO) test -race ./...

check: vet lint race

loc:
	@files=$$(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './atisbench/*'); \
	wc -l $$files | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k2; \
	cat $$files | wc -l | awk '{ printf "%7d  total\n", $$1 }'

fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME) ./internal/graphio
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/quel
	$(GO) test -run '^$$' -fuzz FuzzIndexed -fuzztime $(FUZZTIME) ./internal/pqueue
	$(GO) test -run '^$$' -fuzz FuzzRouteQuery -fuzztime $(FUZZTIME) ./internal/httpapi

bench:
	$(GO) test -run xxx -bench 'RepeatedQueries|SearchParallel|RouteServiceParallel|BatchCompute|ALTPreprocess' -benchmem .

bench-paper:
	$(GO) test -run xxx -bench 'Table|Figure|Ablation' -benchmem .

bench-telemetry:
	$(GO) test -run xxx -bench 'TelemetryOverhead|PrometheusExport' -benchmem -benchtime 200x -count 3 .

# Preprocessing and rebuild iterate whole builds, so they get a
# small fixed iteration count; queries are microseconds and get 100x.
bench-ch:
	$(GO) test -run xxx -bench 'CHPreprocess|CHTopology|CHRebuildAfterMutation' -benchmem -benchtime 3x -count 3 -timeout 60m .
	$(GO) test -run xxx -bench 'CHQuery|CHServiceQuery' -benchmem -benchtime 100x -count 3 .

bench-admission:
	$(GO) test -run xxx -bench 'CtxOverhead' -benchmem -benchtime 100x -count 3 .
	$(GO) test -run xxx -bench 'AdmissionAcquire|AdmissionShed' -benchmem -count 3 .

# The structural pass iterates multi-second contractions (3x); metric
# customization and the stream cycle are milliseconds (50x).
bench-customize:
	$(GO) test -run xxx -bench 'CHPreprocess' -benchmem -benchtime 3x -count 3 -timeout 60m .
	$(GO) test -run xxx -bench 'CHCustomize|CHTrafficStream' -benchmem -benchtime 50x -count 3 -timeout 60m .

bench-trace:
	$(GO) test -run xxx -bench 'TraceOverhead|TraceRingCapture' -benchmem -benchtime 200x -count 3 .

bench-http:
	$(GO) test -run xxx -bench 'HTTPRoute' -benchmem -count 3 ./internal/httpapi

bench-lint:
	$(GO) test -run xxx -bench 'LintModule' -benchmem -count 3 ./internal/lint

bench-snapshot:
	$(GO) test -run xxx -bench 'SnapshotReadUnderMutation' -benchtime 5000x -count 3 -timeout 30m .
