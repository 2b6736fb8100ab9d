GO ?= go

# Baseline the bench-compare target diffs against.
BENCH_BASELINE ?= BENCH_PR3.json

.PHONY: all ci build vet test test-race test-pipebench bench-smoke bench bench-compare bench-scale bench-batch bench-build figures figures-smoke trace-smoke faults-smoke telemetry-smoke workload-smoke fuzz-smoke

all: vet test

# Full CI gate: vet, tests, the race-detector pass, and pipebench's own
# vet and tests.
ci: vet test test-race test-pipebench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

# Race-detector pass over the whole module; the replication and experiment
# packages exercise the parallel paths directly.
test-race:
	$(GO) test -race ./...

# pipebench is a module of its own, so the root ./... never compiles it: a
# deleted or renamed name it calls would otherwise pass CI and only break
# when the benchmark runs.
test-pipebench:
	cd pipebench && $(GO) vet ./... && $(GO) test ./...

# Fuzz smoke: ten seconds of coverage-guided fuzzing for each of the
# input-facing targets — the topology snapshot loader, the banded
# unit-disk build, and the fault and traffic spec grammars. Plain test
# runs only replay their seed corpora. -fuzz takes one target in one
# package, hence one go test per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzBuildParallelAgree$$' -fuzztime 10s ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/workload

# Quick benchmark smoke: the end-to-end sweep point plus the hot kernels it
# is built from. Compare against BENCH_PR1.json for regressions.
bench-smoke:
	$(GO) test -run xxx -bench 'SweepPoint|TopologyGenerate|CoverageBuilder|StaticBackbone|DynamicBroadcast|BitsetOps' -benchtime 1s .

# Re-run the baselined benchmarks and diff ns/op + allocs/op against
# $(BENCH_BASELINE), warning on regressions beyond 10%. -short keeps the
# gate quick by skipping the n=50000 scale points; run `make bench-scale`
# for the full curves benchcmp renders per network size.
bench-compare:
	$(GO) test -short -run xxx -bench 'SweepPoint|MobilityStep|TopologyGenerate|CoverageBuilder|StaticBackbone|DynamicBroadcast|ConstructionThroughput|BitsetOps|BitsetReset|ScaleReplicate|ScaleKernels' -benchtime 1s . \
		| $(GO) run ./cmd/benchcmp -baseline $(BENCH_BASELINE) -threshold 0.10

# Full scaling curves (n=1000..50000, several minutes), diffed by network
# size against $(BENCH_BASELINE).
bench-scale:
	$(GO) test -run xxx -bench 'ScaleReplicate|ScaleKernels' -benchtime 10x . \
		| $(GO) run ./cmd/benchcmp -baseline $(BENCH_BASELINE) -threshold 0.10

# Bit-parallel replication gate: the n=1000 batch-vs-scalar point diffed
# against BENCH_PR6.json, a race pass over the 64-wide engine's equivalence
# suites, and the batched figure path end to end through the cmd/figures
# -batch flag (the CSV bytes must not depend on -workers; see
# TestBatchFiguresWorkerInvariant for the in-process version).
bench-batch:
	$(GO) test -run xxx -bench 'ReplicateBatch/n=1000$$' -benchtime 10x . \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_PR6.json -threshold 0.10
	$(GO) test -race -run 'Batch' ./internal/broadcast ./internal/faults ./internal/stats ./internal/experiment
	$(GO) run ./cmd/figures -fig gossip -quick -batch -seed 7 -workers 4 -format csv

# Sharded construction-stage gate: the unit-disk sweep and
# coverage-digest curves diffed against BENCH_PR8.json (-short keeps it
# to n≤10000), a race pass over the strip-count equivalence suites
# (digest, grid build, gateway and MO_CDS selection, dynamic-backbone
# init, and the experiment-level bit-identity sweep; the cluster suite
# checks the deprecated election forward), and cmd/scale end to end at
# -buildworkers 1 and 8, which must print the same result= values.
bench-build:
	$(GO) test -short -run xxx -bench 'ShardedCoverage|ParallelTopology' -benchtime 10x \
		./internal/coverage ./internal/topology \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_PR8.json -threshold 0.10
	$(GO) test -race -run 'Parallel|BuildWorkers' \
		./internal/coverage ./internal/cluster ./internal/topology ./internal/backbone \
		./internal/mocds ./internal/dynamicb ./internal/experiment
	w1=$$($(GO) run ./cmd/scale -n 2000 -d 12 -reps 1 -buildworkers 1) || exit 1; \
	w8=$$($(GO) run ./cmd/scale -n 2000 -d 12 -reps 1 -buildworkers 8) || exit 1; \
	echo "$$w1"; echo "$$w8"; \
	r1=$$(echo "$$w1" | grep -o 'result=.*'); r8=$$(echo "$$w8" | grep -o 'result=.*'); \
	if [ -z "$$r1" ] || [ "$$r1" != "$$r8" ]; then \
		echo "bench-build: cmd/scale result= values differ between -buildworkers 1 and 8" >&2; exit 1; \
	fi

# Full benchmark suite (several minutes).
bench:
	$(GO) test -run xxx -bench . -benchtime 1s .

# Regenerate the paper's figures (CSV + markdown under figures/).
figures:
	$(GO) run ./cmd/figures

# Group-sweep worker invariance at the CLI: every figure under the quick
# rule at -workers 1 and -workers 4, once on the scalar path and once with
# -batch (a different Monte-Carlo sample, equally worker-invariant). Every
# CSV must be byte-identical between the two worker counts of a pair.
# Output lands in artifacts/figures-smoke.
figures-smoke:
	rm -rf artifacts/figures-smoke
	$(GO) build -o artifacts/figures-smoke/figures ./cmd/figures
	for mode in scalar batch; do \
		flags=; [ $$mode = batch ] && flags=-batch; \
		for w in 1 4; do \
			artifacts/figures-smoke/figures -fig all -quick -format csv $$flags \
				-workers $$w -out artifacts/figures-smoke/$$mode-w$$w > /dev/null || exit 1; \
		done; \
		diff -rq -x manifest.json artifacts/figures-smoke/$$mode-w1 artifacts/figures-smoke/$$mode-w4 || \
			{ echo "figures-smoke: $$mode CSVs differ between -workers 1 and 4" >&2; exit 1; }; \
	done

# Observability smoke: record a traced dynamic-backbone broadcast with its
# run manifest, then replay the trace through the inspector (which
# reconciles the event stream against itself). Artifacts land in artifacts/
# for CI upload.
trace-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/manetsim -n 60 -d 8 -seed 7 -source 0 -protocols dynamic-2.5 \
		-trace artifacts/trace.jsonl -manifest artifacts/manifest.json
	$(GO) run ./cmd/trace artifacts/trace.jsonl
	$(GO) run ./cmd/scale -n 500 -d 12 -reps 1 -stages dynamic25 \
		-trace artifacts/scale-trace.jsonl -manifest artifacts/scale-manifest.json
	$(GO) run ./cmd/trace artifacts/scale-trace.jsonl

# Live-telemetry smoke: run cmd/scale with the full telemetry bundle — a
# heartbeat JSONL stream, the HTTP endpoint, and a pre-exit self-scrape of
# /metrics and /progress (deterministic artifacts; no curl race against the
# process lifetime) — then schema-validate and digest the heartbeat stream
# through the inspector. Artifacts land in artifacts/telemetry for CI upload.
telemetry-smoke:
	mkdir -p artifacts/telemetry
	$(GO) run ./cmd/scale -n 2000 -d 12 -reps 2 -stages static25,dynamic25 \
		-telemetry 127.0.0.1:0 -hb-every 25ms \
		-heartbeat artifacts/telemetry/heartbeat.jsonl \
		-telemetry-scrape artifacts/telemetry
	$(GO) run ./cmd/trace -heartbeat artifacts/telemetry/heartbeat.jsonl
	grep -q 'clustercast_progress_done{task="scale.reps"} 4' artifacts/telemetry/metrics.prom || \
		{ echo "telemetry-smoke: scale.reps progress missing from /metrics scrape" >&2; exit 1; }
	grep -q '^clustercast_scale_dynamic25_heap_high_water_bytes ' artifacts/telemetry/metrics.prom || \
		{ echo "telemetry-smoke: heap high-water gauge missing from /metrics scrape" >&2; exit 1; }

# Traffic-workload gate: a race pass over the multi-source MAC engine,
# workload, route-discovery and parent-chain equivalence suites; a
# -traffic manetsim load report; and the traffic/discovery figures end
# to end under the quick rule (CSV checksums make worker-count
# nondeterminism visible in CI logs). Artifacts land in artifacts/workload.
workload-smoke:
	mkdir -p artifacts/workload
	$(GO) test -race -run 'Workload|MultiMAC|Discover|ParentChain|RouteLen|ValidateDegenerate' \
		./internal/broadcast ./internal/workload ./internal/routing ./internal/experiment ./cmd/manetsim
	$(GO) run ./cmd/manetsim -n 80 -d 10 -seed 7 -protocols flooding \
		-traffic proc=poisson,rate=0.3,flows=24
	$(GO) run ./cmd/figures -fig traffic,discovery -quick -seed 7 -workers 4 -out artifacts/workload -format csv > /dev/null
	cksum artifacts/workload/*.csv

# Fault-injection smoke: a churn-and-repair manetsim run plus the two
# failure-sweep figures under the quick replication rule. The CSV checksums
# make worker-count nondeterminism visible in CI logs (the figure bytes must
# not depend on parallelism).
faults-smoke:
	mkdir -p artifacts/faults
	$(GO) run ./cmd/manetsim -n 80 -d 10 -seed 7 \
		-faults mtbf=100,mttr=40,burst=0.1:4,warmup=500
	$(GO) run ./cmd/figures -fig faults,burst -quick -seed 7 -out artifacts/faults
	cksum artifacts/faults/*.csv
