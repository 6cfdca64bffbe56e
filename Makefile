GO ?= go

.PHONY: all build loc vet lint test test-race test-engine-equivalence fuzz-smoke audit-smoke telemetry-smoke blame-smoke batch-smoke experiments-smoke simbench-test bench-smoke adversary-smoke quickstart horizon-smoke ci

all: build vet lint test

build:
	$(GO) build ./...

# Non-test Go lines, the size figure ROADMAP tracks: every line (code,
# comments and blanks) of every .go file except *_test.go files, outside
# simbench/ (its own module), any testdata/ directory and hidden
# directories.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './simbench/*' ! -path '*/testdata/*' ! -path './.*' -exec cat {} + | wc -l

vet:
	$(GO) vet ./...

# Formatting and known vulnerabilities. gofmt must be clean, and
# govulncheck runs when installed (CI installs it; an offline machine
# may not have it). The project's own contracts are tests
# (contracts_test.go and the AllocsPerRun hot-path tests), so they run
# in `make test`.
lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; fi

test:
	$(GO) test ./...

# Full suite under the race detector. The concurrent structures are the
# harness worker pool (its dispatch, futures and records), the result
# cache, each lockstep group's replay goroutine, and the state every
# run of a process shares: the free list of LLC arrays and DAPPER-H
# tables (internal/cache/spare) and DAPPER-H's group and partner memos
# (internal/core/partners.go). TestPoolDapperHLockstepRace drives
# DAPPER-H lockstep groups on two workers to exercise the last three.
test-race:
	$(GO) test -race ./...

# The event-engine safety net, run explicitly so a regression is named in
# CI output: sim's scenario matrix, exp's full tracker matrix (and its
# two-attackers-at-once conformance check), and adversary's
# sampled-parametric-point matrix (with the security oracle attached)
# must prove the event and cycle engines produce identical Results; the
# controller's and the core's wake tests (cached NextEvent answers,
# sparse driving and gap replay against a per-cycle driver) must prove
# each component's own half of that contract.
test-engine-equivalence:
	$(GO) test -run 'TestEngineEquivalence|TestEngineDeterminism|TestMixSecaudit|TestNextEvent|TestEarliestReadyMatchesPick|GapReplayMatchesDense|TestCatchUpMatchesPerCycle' -v -count=1 ./internal/sim ./internal/exp ./internal/adversary ./internal/mem ./internal/cpu

# Short-budget native fuzzing of three pure-function surfaces:
# parametric trace generation (geometry bounds + replay determinism),
# the physical address mapping (decompose/compose bijection) and
# DAPPER-H's shared group memo (every read equals the ciphers). Seed
# corpora (testdata/fuzz/ or f.Add) replay in every plain `go test`.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzParamsTrace -fuzztime=15s ./internal/attack
	$(GO) test -run=NONE -fuzz=FuzzDecompose -fuzztime=15s ./internal/dram
	$(GO) test -run=NONE -fuzz=FuzzGroupMemo -fuzztime=15s ./internal/core

# Security conformance smoke: `dapper batch -audit` runs the shadow
# oracle over every registered tracker under three tailored attacks and
# two mitigation-command modes at NRH 125 (tiny profile, seconds).
# -check enforces the expectation: the insecure baseline must escape,
# every real tracker must not. The same sweep then runs on -engine
# cycle into audit-smoke/cycle/, and the two batch.jsonl files must be
# byte-identical once the cache key, the engine tag, the cached flag and
# the elapsed time are stripped. CI uploads audit-smoke/batch.jsonl as
# an artifact.
AUDIT_SMOKE = $(GO) run ./cmd/dapper batch -audit -profile tiny -tracker all -workload 429.mcf -attack hammer,refresh,streaming -mode vrr-br1,rfmsb -nrh 125 -seed 1 -check
audit-smoke:
	@rm -rf audit-smoke
	$(AUDIT_SMOKE) -engine event -out audit-smoke
	$(AUDIT_SMOKE) -engine cycle -out audit-smoke/cycle
	@norm='s/"key":"[0-9a-f]*",//; s/,"engine":"[a-z]*"//; s/"cached":[a-z]*,//; s/"elapsed_ns":[0-9]*,//'; \
	sed "$$norm" audit-smoke/cycle/batch.jsonl > audit-smoke/cycle/norm.jsonl; \
	sed "$$norm" audit-smoke/batch.jsonl | cmp - audit-smoke/cycle/norm.jsonl \
		|| { echo "audit-smoke FAILED: -engine cycle batch.jsonl differs from -engine event"; exit 1; }; \
	echo "audit-smoke: $$(wc -l < audit-smoke/batch.jsonl) audited points identical on -engine event and cycle"

# Telemetry smoke: one small windowed `dapper sim` run (-window 10)
# rendered to telemetry-smoke/timeline-dapper-h.{jsonl,txt}. The run itself fails on a broken series
# invariant (monotone window grid, per-window sums equal to grand
# totals), on series totals that differ from the DRAM counters, and on
# broken attribution conservation; -check adds the cross-engine byte
# equality — then a
# tiny batch sweep with the harness tracer attached, so
# telemetry-smoke/tel/ carries a Perfetto-viewable trace.json CI uploads
# as an artifact.
telemetry-smoke:
	@rm -rf telemetry-smoke
	$(GO) run ./cmd/dapper sim -tracker dapper-h -attack refresh -nrh 500 -warmup 5 -measure 60 -window 10 -rows-per-bank 1024 -seed 1 -check -out telemetry-smoke
	$(GO) run ./cmd/dapper batch -profile tiny -tracker dapper-h,none -workload 429.mcf -nrh 500 -attack refresh -window 10 -telemetry telemetry-smoke/tel -out telemetry-smoke

# Slowdown-attribution smoke: the same windowed `dapper sim` report
# (-window 10) for every registered tracker under the focused hammer at
# NRH 125 on a reduced geometry (seconds). Each run fails on broken
# conservation (CPI stacks sum to cycles, blame buckets sum exactly to
# memory wait, per window and grand total); -check adds cross-engine
# byte equality of the attribution and the windowed stacks. blame-smoke/
# holds per-tracker timeline-<id>.{jsonl,txt}, each with the core→core
# blame matrix ("matrix" lines in the JSONL, a table in the text); CI
# uploads the directory as an artifact.
blame-smoke:
	@rm -rf blame-smoke
	$(GO) run ./cmd/dapper sim -tracker all -attack hammer -nrh 125 -rows-per-bank 1024 -warmup 5 -measure 60 -window 10 -seed 1 -check -out blame-smoke

# Batched sweep smoke: a tiny sweep through `dapper batch` into a
# -cache directory. The sweep includes a throttler (blockhammer). Its
# -window/-attr runs carry telemetry and attribution, so each runs
# alone; the lockstep grouping of stream-sharing points is proven byte
# for byte by test-engine-equivalence (TestEngineEquivalenceBatched*,
# TestEngineEquivalencePoolGroups), and this target keeps the cmd and cache
# wiring honest end to end.
#
# The first run is the cold pass. A warm rerun must serve every point
# from the cache and write the same JSONL (elapsed and cached
# normalised away). Then one entry is overwritten with {} and the sweep
# rerun: the cache must quarantine it (a *.corrupt file appears),
# re-simulate exactly that point, and still match.
BATCH_SMOKE = $(GO) run ./cmd/dapper batch -profile tiny -tracker none,dapper-h,hydra,blockhammer -workload 429.mcf -nrh 500,1000 -attack none -window 10 -attr
batch-smoke:
	@rm -rf batch-smoke && mkdir -p batch-smoke
	$(BATCH_SMOKE) -cache batch-smoke/cache -out batch-smoke/pool > batch-smoke/pool.txt
	$(BATCH_SMOKE) -cache batch-smoke/cache -out batch-smoke/warm > batch-smoke/warm.txt
	@entry=$$(ls batch-smoke/cache/*.json | head -1); echo '{}' > $$entry
	$(BATCH_SMOKE) -cache batch-smoke/cache -out batch-smoke/healed > batch-smoke/healed.txt
	@set -e; n=$$(wc -l < batch-smoke/pool/batch.jsonl); \
	norm='s/"elapsed_ns":[0-9]*/"elapsed_ns":0/; s/"cached":true/"cached":false/'; \
	for leg in pool warm healed; do sed "$$norm" batch-smoke/$$leg/batch.jsonl > batch-smoke/$$leg-norm.jsonl; done; \
	grep -q "($$n simulated, 0 cache hits" batch-smoke/pool.txt \
		|| { echo "batch-smoke FAILED: cold pass did not simulate all $$n points"; cat batch-smoke/pool.txt; exit 1; }; \
	grep -q "(0 simulated, $$n cache hits" batch-smoke/warm.txt \
		|| { echo "batch-smoke FAILED: warm rerun did not serve all $$n points from the cache"; cat batch-smoke/warm.txt; exit 1; }; \
	cmp batch-smoke/pool-norm.jsonl batch-smoke/warm-norm.jsonl \
		|| { echo "batch-smoke FAILED: warm rerun JSONL differs"; exit 1; }; \
	echo "batch-smoke: warm rerun served $$n/$$n points from the cache, JSONL identical (elapsed/cached aside)"; \
	ls batch-smoke/cache/*.corrupt >/dev/null 2>&1 \
		|| { echo "batch-smoke FAILED: corrupted entry was not quarantined"; exit 1; }; \
	grep -q "(1 simulated, $$((n - 1)) cache hits" batch-smoke/healed.txt \
		|| { echo "batch-smoke FAILED: heal rerun did not re-simulate exactly one point"; cat batch-smoke/healed.txt; exit 1; }; \
	cmp batch-smoke/pool-norm.jsonl batch-smoke/healed-norm.jsonl \
		|| { echo "batch-smoke FAILED: post-corruption JSONL differs"; exit 1; }; \
	echo "batch-smoke: corrupted entry quarantined, re-simulated, JSONL still identical"

# Headline smoke: `dapper experiments` regenerates every table and
# figure at the tiny profile three times: cold into a -cache at two
# workers, warm from that cache (it must simulate nothing), and with
# one worker and no cache. All three stdouts must be byte-identical.
EXPERIMENTS_SMOKE = $(GO) run ./cmd/dapper experiments -exp all -profile tiny -seed 1
experiments-smoke:
	@rm -rf experiments-smoke && mkdir -p experiments-smoke
	$(EXPERIMENTS_SMOKE) -jobs 2 -cache experiments-smoke/cache -out experiments-smoke/cold > experiments-smoke/cold.txt
	$(EXPERIMENTS_SMOKE) -jobs 2 -cache experiments-smoke/cache -out experiments-smoke/warm > experiments-smoke/warm.txt 2> experiments-smoke/warm.err
	$(EXPERIMENTS_SMOKE) -jobs 1 -out experiments-smoke/serial > experiments-smoke/serial.txt
	@grep -q "simulations: 0 ran, 0 lockstep" experiments-smoke/warm.err \
		|| { echo "experiments-smoke FAILED: warm rerun simulated"; cat experiments-smoke/warm.err; exit 1; }
	@cmp experiments-smoke/cold.txt experiments-smoke/warm.txt \
		|| { echo "experiments-smoke FAILED: warm rerun tables differ"; exit 1; }
	@cmp experiments-smoke/cold.txt experiments-smoke/serial.txt \
		|| { echo "experiments-smoke FAILED: -jobs 1 tables differ"; exit 1; }
	@echo "experiments-smoke: $$(grep -c '^== ' experiments-smoke/cold.txt) tables identical cold, warm (0 ran) and at -jobs 1"

# The benchmark's own tests (simbench is a separate module, so plain
# `go test ./...` skips it): chiefly the completeness check that every
# internal package maps to exactly one layer of the per-layer fold.
simbench-test:
	cd simbench && $(GO) test ./...

# One iteration of every package microbenchmark (saturated controller,
# core catch-up, DAPPER-H activation, flatmap), so none of them can rot
# unnoticed. The tables and figures are pinned by TestExperimentsGolden
# and experiments-smoke; to time one by hand, run
# `dapper experiments -exp fig5 -profile quick -jobs 1`.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Worst-case attack search smoke: a deterministic tiny-profile search
# against two trackers (fixed seed, well under a minute), then an
# escape hunt (-objective escapes, every point audited) against Hydra.
# CI uploads the resilience reports it writes to adversary-smoke/ and
# adversary-smoke/escapes/.
adversary-smoke:
	@rm -rf adversary-smoke
	$(GO) run ./cmd/dapper adversary -tracker hydra,comet -profile tiny -budget 10 -seed 1 -out adversary-smoke
	$(GO) run ./cmd/dapper adversary -objective escapes -tracker hydra -profile tiny -budget 6 -seed 1 -out adversary-smoke/escapes

# The one in-process walkthrough, run so it cannot rot: a DAPPER-H
# tracker fed scattered, then hammered activations (under a second).
quickstart:
	$(GO) run ./examples/quickstart

# Horizon smoke: one DAPPER-H run over a full reset window (tREFW =
# 32 ms) of four 429.mcf copies at NRH 500, where it mitigates ~533K
# times, so the mitigation walk is most of the run. Its stdout (IPC,
# DRAM and tracker counters) must match testdata/horizon-smoke.golden
# byte for byte.
horizon-smoke:
	@mkdir -p horizon-smoke
	$(GO) run ./cmd/dapper sim -tracker dapper-h -workload 429.mcf -attack none -nrh 500 -measure 32000 > horizon-smoke/stdout.txt
	@cmp testdata/horizon-smoke.golden horizon-smoke/stdout.txt \
		|| { echo "horizon-smoke FAILED: stdout differs from testdata/horizon-smoke.golden"; diff testdata/horizon-smoke.golden horizon-smoke/stdout.txt; exit 1; }
	@echo "horizon-smoke: 32 ms DAPPER-H run matches its golden"

ci: build loc vet lint test test-race test-engine-equivalence audit-smoke telemetry-smoke blame-smoke batch-smoke experiments-smoke simbench-test fuzz-smoke bench-smoke adversary-smoke quickstart horizon-smoke
