GO ?= go

RACE_PKGS := ./...

.PHONY: all build test vet fmt-check lint fuzz-smoke race bench microbench bench-smoke bench-profile bench-cluster bench-churn bench-fanout bench-scale bench-scale-smoke bench-registrychurn bench-registrychurn-smoke bench-flashcrowd bench-flashcrowd-smoke bench-zipf

all: build test vet fmt-check lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt must report no files; print the offenders when it does.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The repo-native static-analysis suite (internal/lint, driven by
# cmd/lodlint): wire-contract literals stay in internal/proto,
# virtual-clock packages take time from vclock.Clock, request paths stay
# cancellable, and internal handlers answer errors with the proto.Error
# JSON body. Successor to the retired api-check grep — it walks the AST,
# so Sprintf/concat compositions are caught and comments/tests are not.
lint:
	$(GO) run ./cmd/lodlint ./...

# Short seeded fuzz passes over the internal/proto parsers. Minutes-long
# fuzzing is for `go test -fuzz=... ./internal/proto` by hand; this is
# the CI smoke tier.
fuzz-smoke:
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzStreamNameRoundTrip -fuzztime=5s
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzParseStart -fuzztime=5s
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzParseBandwidth -fuzztime=5s
	$(GO) test ./internal/proto -run='^$$' -fuzz=FuzzSplitExclude -fuzztime=5s
	$(GO) test ./internal/catalog -run='^$$' -fuzz=FuzzStateRoundTrip -fuzztime=5s

race:
	$(GO) test -race $(RACE_PKGS)

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration of every packet-path stage benchmark (asf read/write,
# netsim link, streaming publish/serve): keeps them compiling and
# passing on every push. Timings come from longer runs by hand.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/asf ./internal/netsim ./internal/streaming

# Seconds-long cluster load benchmarks; CI runs them on every push so
# the swarm harness (internal/loadgen) stays runnable end to end. The
# churn case kills and restarts an edge mid-run, so the failover path
# (client retry/resume + registry failure reports) is exercised on
# every push, not just in the committed record.
bench-smoke:
	$(GO) run ./cmd/lodbench -scenario smoke -clients 60 -edges 2 -out BENCH_smoke.json
	$(GO) run ./cmd/lodbench -scenario 'churn?kills=1&firstkill=500ms&restartafter=1s&duration=2s&rate=40' \
		-clients 20 -edges 2 -out BENCH_churn_smoke.json

# A small fan-out run with CPU/heap profiles captured and the perf
# block asserted nonzero: keeps the profiling plumbing (-cpuprofile,
# -memprofile, perf measurement in loadgen.Run) working on every push.
# The profiles land next to the record for `go tool pprof`.
bench-profile:
	$(GO) run ./cmd/lodbench -scenario fanout -clients 200 -edges 1 \
		-cpuprofile fanout_cpu.pprof -memprofile fanout_mem.pprof \
		-assert-perf -out BENCH_fanout_smoke.json

# The benchmarks of record (BENCHMARKS.md); append their numbers to
# EXPERIMENTS.md when they move.
bench-cluster:
	$(GO) run ./cmd/lodbench -scenario mixed -clients 1000 -edges 3 -out BENCH_cluster.json

bench-churn:
	$(GO) run ./cmd/lodbench -scenario churn -clients 400 -edges 3 -out BENCH_churn.json

# Registry kill/restart mid-run: the control plane goes down for 1.2s,
# comes back restored from its durable catalog snapshot, and must serve
# redirects from restored membership before any edge re-heartbeats
# (cluster.snapshotRedirects in the record). Gated on zero session
# failures — clients ride the outage out on their failover budget.
bench-registrychurn:
	$(GO) run ./cmd/lodbench -scenario registrychurn -clients 400 -edges 3 -out BENCH_registrychurn.json

# The CI tier: same kill/restart cycle, seconds-long population.
bench-registrychurn-smoke:
	$(GO) run ./cmd/lodbench -scenario 'registrychurn?rate=60&firstkill=1s&restartafter=800ms&duration=2s' \
		-clients 60 -edges 2 -out BENCH_registrychurn_smoke.json

# The committed before/after pair is BENCH_fanout_before.json (pre
# zero-copy serving path, saturated at 2500 clients) against this run.
# GOMAXPROCS=1 makes the number a per-core serving capacity.
bench-fanout:
	GOMAXPROCS=1 $(GO) run ./cmd/lodbench -scenario fanout -clients 7500 -edges 1 -out BENCH_fanout.json

# "10× the cluster": 10k mixed-workload clients over a 16-edge fleet,
# the population split across 8 shard drivers. The record's
# cluster.redirectsPerSec and shards block are the headline numbers.
bench-scale:
	$(GO) run ./cmd/lodbench -scenario scale -clients 10000 -edges 16 -shards 8 -out BENCH_scale.json

# The CI tier of the scale scenario: small enough for seconds, but the
# same 16-edge fleet and sharded drivers, gated on zero session
# failures (lodbench exits nonzero on any) and on startup p99 staying
# under a generous regression bound.
bench-scale-smoke:
	$(GO) run ./cmd/lodbench -scenario 'scale?rate=400' -clients 400 -edges 16 -shards 4 \
		-assert-startup-p99 2s -out BENCH_scale_smoke.json

# The committed before/after pair for the popularity-aware edge cache:
# the same flash crowd once with the LRU baseline and once with
# W-TinyLFU admission + miss coalescing. cache.originBytes and
# cache.perAsset maxEdgePulls are the headline (BENCHMARKS.md).
bench-flashcrowd:
	$(GO) run ./cmd/lodbench -scenario 'flashcrowd?cachepolicy=lru' -clients 1200 -edges 2 -out BENCH_flashcrowd_lru.json
	$(GO) run ./cmd/lodbench -scenario flashcrowd -clients 1200 -edges 2 -out BENCH_flashcrowd.json

# The CI tier: the whole crowd lands inside ~50ms (rate=3000), so the
# hot asset's first pull is still in flight when the next demands
# arrive — the miss-coalescing case. Gated on zero session failures
# (lodbench exits nonzero on any) and on coalescing + admission holding
# duplicate origin pulls of the hot asset to at most one per edge.
bench-flashcrowd-smoke:
	$(GO) run ./cmd/lodbench -scenario 'flashcrowd?rate=3000' -clients 150 -edges 2 \
		-assert-hot-pulls 1 -out BENCH_flashcrowd_smoke.json

# Zipf-popular VOD over a tight cache: the cache.hitRate pair is the
# frequency-gated-admission headline.
bench-zipf:
	$(GO) run ./cmd/lodbench -scenario 'zipf?cachepolicy=lru' -clients 800 -edges 2 -out BENCH_zipf_lru.json
	$(GO) run ./cmd/lodbench -scenario zipf -clients 800 -edges 2 -out BENCH_zipf.json
