GO ?= go

.PHONY: all build vet lint test test-race test-engine-equivalence fuzz-smoke audit-smoke mix-smoke telemetry-smoke blame-smoke batch-smoke serve-smoke simbench-test bench-mix bench-smoke bench-compare bench-check adversary-smoke bench-adversary ci

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static contracts (internal/analysis): nodeterm,
# maporder, descriptorsync and hotpath, compiled into cmd/dapper-lint.
# The binary doubles as a `go vet -vettool`. gofmt must be clean (the
# //dapper: annotations are gofmt-stable), and govulncheck runs when
# installed (CI installs it; the offline dev container may not have it).
lint:
	$(GO) build -o bin/dapper-lint ./cmd/dapper-lint
	./bin/dapper-lint ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; fi

test:
	$(GO) test ./...

# Full suite under the race detector: the harness worker pool, sinks and
# result cache are the only concurrent structures, and this is what keeps
# them honest.
test-race:
	$(GO) test -race ./...

# The event-engine safety net, run explicitly so a regression is named in
# CI output: sim's scenario matrix, exp's full tracker matrix, and
# adversary's sampled-parametric-point matrix (with the security oracle
# attached) must prove the event and cycle engines produce identical
# Results.
test-engine-equivalence:
	$(GO) test -run 'TestEngineEquivalence|TestEngineDeterminism' -v -count=1 ./internal/sim ./internal/exp ./internal/adversary

# Short-budget native fuzzing of the two pure-function attack surfaces:
# parametric trace generation (geometry bounds + replay determinism) and
# the physical address mapping (decompose/compose bijection). Seed
# corpora live under testdata/fuzz/ and replay in every plain `go test`.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParamsTrace -fuzztime=15s ./internal/attack
	$(GO) test -run=NONE -fuzz=FuzzDecompose -fuzztime=15s ./internal/dram

# Security conformance smoke: the shadow oracle audits every registered
# tracker under three tailored attacks and two mitigation-command modes
# at NRH 125 (tiny profile, seconds). -check enforces the expectation:
# the insecure baseline must escape, every real tracker must not. The
# matrix in audit-smoke/ is byte-identical across reruns and across
# -engine event/cycle; CI uploads it as an artifact.
audit-smoke:
	$(GO) run ./cmd/dapper-audit -profile tiny -tracker all -attack hammer,refresh,streaming -mode vrr-br1,rfmsb -nrh 125 -seed 1 -check -out audit-smoke

# Heterogeneous mix smoke: two seeded 4-core mixes with two focused
# hammers each, swept over every registered tracker at NRH 125 with the
# shadow oracle attached (tiny profile, seconds, deterministic).
# -check enforces both gates: metrics finite and in bounds, the
# insecure baseline escapes under the 2-attacker mixes, every real
# tracker holds at zero. The report in mix-smoke/ is byte-identical
# across reruns and across -engine event/cycle; CI uploads it as an
# artifact.
mix-smoke:
	$(GO) run ./cmd/dapper-mix -profile tiny -mixes 2 -cores 4 -attackers 2 -attack hammer -tracker all -nrh 125 -seed 1 -audit -check -out mix-smoke

# Telemetry smoke: one small windowed run rendered to
# telemetry-smoke/timeline.{jsonl,csv} with -check gating the series
# invariants (monotone window grid, per-window sums equal to grand
# totals, ACT/mitigation conservation against the final DRAM counters)
# and cross-engine byte equality of the series — then a tiny batch
# sweep with the harness tracer attached, so telemetry-smoke/tel/
# carries a Perfetto-viewable trace.json CI uploads as an artifact.
telemetry-smoke:
	$(GO) run ./cmd/dapper-timeline -tracker dapper-h -attack refresh -nrh 500 -warmup 5 -measure 60 -window 10 -rows-per-bank 1024 -seed 1 -check -out telemetry-smoke
	$(GO) run ./cmd/dapper-batch -profile tiny -trackers dapper-h,none -workloads 429.mcf -nrh 500 -attack refresh -window-us 10 -telemetry telemetry-smoke/tel -out telemetry-smoke

# Slowdown-attribution smoke: every registered tracker attributed under
# the focused hammer at NRH 125 on a reduced geometry (seconds).
# -check gates conservation on each run (CPI stacks sum to cycles,
# blame buckets sum exactly to memory wait, per window and grand
# total) and cross-engine byte equality of the attribution and the
# windowed stacks. blame-smoke/ holds per-tracker CPI-stack
# JSONL/CSV/ASCII plus the core→core blame matrices; CI uploads the
# directory as an artifact.
blame-smoke:
	$(GO) run ./cmd/dapper-blame -tracker all -attack hammer -nrh 125 -rows-per-bank 1024 -warmup 5 -measure 60 -window 10 -seed 1 -check -out blame-smoke

# Batched sweep smoke: the same tiny sweep through both runners — the
# lockstep batch runner (-batch: decode once, replay non-perturbing
# tracker configs against the lead's recorded stream) and the
# independent pool — writing to separate directories. The byte-level
# equivalence of the two paths is proven by test-engine-equivalence
# (TestEngineEquivalenceBatched* in sim and exp); this target keeps the
# cmd wiring honest end to end. The sweep includes a throttler
# (blockhammer) so the fallback path executes too.
batch-smoke:
	$(GO) run ./cmd/dapper-batch -profile tiny -trackers none,dapper-h,hydra,blockhammer -workloads 429.mcf -nrh 500,1000 -window-us 10 -attr -batch -out batch-smoke/batched
	$(GO) run ./cmd/dapper-batch -profile tiny -trackers none,dapper-h,hydra,blockhammer -workloads 429.mcf -nrh 500,1000 -window-us 10 -attr -out batch-smoke/pool
	@sed 's/"elapsed_ns":[0-9]*//' batch-smoke/batched/batch.jsonl > batch-smoke/batched-stripped.jsonl
	@sed 's/"elapsed_ns":[0-9]*//' batch-smoke/pool/batch.jsonl > batch-smoke/pool-stripped.jsonl
	@cmp batch-smoke/batched-stripped.jsonl batch-smoke/pool-stripped.jsonl \
		&& echo "batch-smoke: batched and pool JSONL identical (elapsed aside)" \
		|| { echo "batch-smoke FAILED: batched and pool outputs differ"; exit 1; }

# Sweep-service smoke: start a dapper-serve daemon on an ephemeral
# port, submit a tiny sweep over HTTP, and byte-compare the streamed
# records against the same sweep through dapper-batch's pool path
# (elapsed/cached normalized away — the only fields that may differ).
# Then corrupt one store entry, restart the daemon on the same store,
# and resubmit: the service must quarantine the bad entry (a *.corrupt
# file appears), re-simulate that point, and still match the pool
# bytes. This exercises the whole PR-10 chain end to end — envelope
# verification, quarantine-and-heal, store persistence across daemon
# restarts, and the HTTP record fabric.
serve-smoke:
	$(GO) build -o bin/dapper-serve ./cmd/dapper-serve
	$(GO) build -o bin/dapper-batch ./cmd/dapper-batch
	@rm -rf serve-smoke && mkdir -p serve-smoke
	@set -e; \
	./bin/dapper-serve -addr localhost:0 -addr-file serve-smoke/addr -store serve-smoke/store -rate 0 2> serve-smoke/daemon1.log & \
	pid=$$!; trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 100); do [ -s serve-smoke/addr ] && break; sleep 0.1; done; \
	[ -s serve-smoke/addr ] || { echo "serve-smoke FAILED: daemon never bound"; cat serve-smoke/daemon1.log; exit 1; }; \
	./bin/dapper-serve -client -server http://$$(cat serve-smoke/addr) \
		-trackers none,dapper-h -workloads 429.mcf -nrh 500 -profile tiny -out serve-smoke/client1; \
	kill $$pid; wait $$pid 2>/dev/null || true; trap - EXIT; \
	./bin/dapper-batch -profile tiny -trackers none,dapper-h -workloads 429.mcf -nrh 500 -out serve-smoke/pool; \
	norm='s/"elapsed_ns":[0-9]*/"elapsed_ns":0/; s/"cached":true/"cached":false/'; \
	sed "$$norm" serve-smoke/client1/records.jsonl > serve-smoke/client1-norm.jsonl; \
	sed "$$norm" serve-smoke/pool/batch.jsonl > serve-smoke/pool-norm.jsonl; \
	cmp serve-smoke/client1-norm.jsonl serve-smoke/pool-norm.jsonl \
		|| { echo "serve-smoke FAILED: service and pool records differ"; exit 1; }; \
	echo "serve-smoke: service and pool JSONL identical (elapsed/cached aside)"; \
	entry=$$(ls serve-smoke/store/*.json | grep -v index.json | head -1); \
	echo '{}' > $$entry; \
	./bin/dapper-serve -addr localhost:0 -addr-file serve-smoke/addr2 -store serve-smoke/store -rate 0 2> serve-smoke/daemon2.log & \
	pid2=$$!; trap "kill $$pid2 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 100); do [ -s serve-smoke/addr2 ] && break; sleep 0.1; done; \
	[ -s serve-smoke/addr2 ] || { echo "serve-smoke FAILED: restarted daemon never bound"; cat serve-smoke/daemon2.log; exit 1; }; \
	./bin/dapper-serve -client -server http://$$(cat serve-smoke/addr2) \
		-trackers none,dapper-h -workloads 429.mcf -nrh 500 -profile tiny -out serve-smoke/client2; \
	kill $$pid2; wait $$pid2 2>/dev/null || true; trap - EXIT; \
	sed "$$norm" serve-smoke/client2/records.jsonl > serve-smoke/client2-norm.jsonl; \
	cmp serve-smoke/client2-norm.jsonl serve-smoke/pool-norm.jsonl \
		|| { echo "serve-smoke FAILED: post-corruption records differ"; exit 1; }; \
	ls serve-smoke/store/*.corrupt >/dev/null 2>&1 \
		|| { echo "serve-smoke FAILED: corrupted entry was not quarantined"; exit 1; }; \
	echo "serve-smoke: corrupted entry quarantined, re-simulated, records still identical"

# The benchmark's own tests (simbench is a separate module, so plain
# `go test ./...` skips it): chiefly the completeness check that every
# internal package maps to exactly one layer of the per-layer fold.
simbench-test:
	cd simbench && $(GO) test ./...

# Benchmark mix-sweep throughput (cells per second) and record it in
# BENCH_mix.json (BenchmarkMix in bench_test.go is the in-process
# equivalent, covered by bench-smoke).
bench-mix:
	$(GO) run ./cmd/dapper-mix -profile tiny -mixes 4 -attackers 1 -tracker none,dapper-h -nrh 500 -seed 1 -out mix-bench -bench BENCH_mix.json

# One iteration of every benchmark in every package: a smoke
# reproduction of each table and figure under the reduced bench profile,
# plus the package microbenchmarks (saturated controller, flatmap), so
# none of them can rot unnoticed.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Benchmark the cycle vs event engine on one figure plus the batched
# sweep runner on an 8-point NRH sweep, and append the timestamped
# report to the BENCH_engine.json trajectory (a JSON array; the perf
# history travels with the repo).
bench-compare:
	$(GO) run ./cmd/dapper-engine-bench -exp fig11 -out BENCH_engine.json

# Gate the perf trajectory instead of extending it: re-run the
# telemetry-off benchmarks and fail if the event-over-cycle speedup
# ratio or the batched-runner speedup regressed >10% versus the last
# recorded BENCH_engine.json point (ratios, not wall-clock, so the
# gates hold across machine speeds).
bench-check:
	$(GO) run ./cmd/dapper-engine-bench -exp fig11 -out BENCH_engine.json -check

# Worst-case attack search smoke: a deterministic tiny-profile search
# against two trackers (fixed seed, well under a minute). CI uploads
# the resilience reports it writes to adversary-smoke/.
adversary-smoke:
	$(GO) run ./cmd/dapper-adversary -tracker hydra,comet -profile tiny -budget 10 -seed 1 -out adversary-smoke

# Benchmark adversary throughput (candidate evaluations per second)
# and record it in BENCH_adversary.json.
bench-adversary:
	$(GO) run ./cmd/dapper-adversary -tracker dapper-h -profile tiny -budget 16 -seed 1 -out adversary-bench -bench BENCH_adversary.json

ci: build vet lint test test-race test-engine-equivalence audit-smoke mix-smoke telemetry-smoke blame-smoke batch-smoke serve-smoke simbench-test fuzz-smoke bench-smoke bench-check adversary-smoke bench-adversary bench-mix
