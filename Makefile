GO ?= go

.PHONY: all ci build vet test test-race test-pipebench bench-smoke bench figures figures-smoke trace-smoke faults-smoke telemetry-smoke workload-smoke fuzz-smoke

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
# unit-disk build, and the fault and traffic spec grammars — for the
# two CSR graph constructors, AddEdge and FromEdges, against each other,
# for graph.SparseSet against its Bitset reference, for the wire
# protocol's arena-backed coverage sets against its round-synchronous
# reference, and for the slotted-MAC kernel against its scalar oracles,
# multi-flow and one-flow, over declining and duplicate-acting protocols.
# Plain test runs only replay their seed corpora. -fuzz takes one target
# in one package, hence one go test per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzGraphInvariants$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzSetRepsAgree$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDESSimAgree$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzBuildParallelAgree$$' -fuzztime 10s ./internal/topology
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzMultiMACScalarDESAgree$$' -fuzztime 10s ./internal/broadcast
	$(GO) test -run '^$$' -fuzz '^FuzzDESMACAgree$$' -fuzztime 10s ./internal/broadcast

# Quick benchmark smoke: the end-to-end sweep point plus the hot kernels it
# is built from. A plain go test -bench run: pipebench (BENCHMARK.json) is
# the benchmark that compares builds.
bench-smoke:
	$(GO) test -run xxx -bench 'SweepPoint|TopologyGenerate|CoverageBuilder|StaticBackbone|DynamicBroadcast|BitsetOps' -benchtime 1s .

# Full benchmark suite (several minutes).
bench:
	$(GO) test -run xxx -bench . -benchtime 1s .

# Regenerate the paper's figures (CSV + markdown under figures/).
figures:
	$(GO) run ./cmd/figures

# Group-sweep worker invariance at the CLI: every figure under the quick
# rule at -workers 1 and -workers 4. Every CSV must be byte-identical
# between the two worker counts. Output lands in artifacts/figures-smoke.
figures-smoke:
	rm -rf artifacts/figures-smoke
	$(GO) build -o artifacts/figures-smoke/figures ./cmd/figures
	for w in 1 4; do \
		artifacts/figures-smoke/figures -fig all -quick -format csv \
			-workers $$w -out artifacts/figures-smoke/w$$w > /dev/null || exit 1; \
	done
	diff -rq -x manifest.json artifacts/figures-smoke/w1 artifacts/figures-smoke/w4 || \
		{ echo "figures-smoke: CSVs differ between -workers 1 and 4" >&2; exit 1; }

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

# Fault-injection smoke: a churn-and-repair manetsim run, a lossy run
# whose mo-cds row must read the same in the full table as run alone (each
# row draws its loss coins from its own fault oracle), plus the two
# failure-sweep figures under the quick replication rule. The CSV checksums
# make worker-count nondeterminism visible in CI logs (the figure bytes must
# not depend on parallelism).
faults-smoke:
	mkdir -p artifacts/faults
	$(GO) run ./cmd/manetsim -n 80 -d 10 -seed 7 \
		-faults mtbf=100,mttr=40,burst=0.1:4,warmup=500
	full=$$($(GO) run ./cmd/manetsim -n 80 -d 10 -seed 7 -source 0 -faults loss=0.3 | grep '^mo-cds ') || exit 1; \
	alone=$$($(GO) run ./cmd/manetsim -n 80 -d 10 -seed 7 -source 0 -faults loss=0.3 -protocols mo-cds | grep '^mo-cds ') || exit 1; \
	echo "full table: $$full"; echo "run alone:  $$alone"; \
	if [ "$$full" != "$$alone" ]; then \
		echo "faults-smoke: the mo-cds row under loss=0.3 depends on the rows run before it" >&2; exit 1; \
	fi
	$(GO) run ./cmd/figures -fig faults,burst -quick -seed 7 -out artifacts/faults
	cksum artifacts/faults/*.csv
