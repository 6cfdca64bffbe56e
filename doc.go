// Package dapper is a from-scratch Go reproduction of "DAPPER: A
// Performance-Attack-Resilient Tracker for RowHammer Defense" (Woo and
// Nair, HPCA 2025).
//
// The module contains the DAPPER-S and DAPPER-H trackers
// (internal/core), a DDR5 memory-system simulator (internal/dram,
// internal/mem, internal/cache, internal/cpu), baseline RowHammer
// mitigations (internal/trackers/...), Performance-Attack generators
// (internal/attack), analytic security and storage models
// (internal/analytic), an energy model (internal/energy) and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation (internal/exp, `dapper experiments`). Every entry
// point is a subcommand of cmd/dapper over one shared flag set; it is
// the module's only binary.
//
// Every tracker is built from what a run supplies: the channel, the
// geometry, NRH and the mitigation mode, plus the LLC size for START
// (exp's tracker registry). Each tracker package fixes its sizing at the
// paper's constants, such as DAPPER's 256-row groups rekeyed every tREFW
// and BlockHammer's 1K-counter, 4-hash Bloom filters. The DRAM timing is
// Table I's DDR5 set (dram.DDR5) throughout.
//
// The trackers' modelled SRAM and their in-simulator layout differ on
// purpose. core.Config's StorageBytesS and StorageBytesH report the
// hardware cost at the paper's widths: 1-byte counters up to NM 255
// and one bit per bank, 96KB per 32GB channel for DAPPER-H (§VI-H).
// The simulator stores each DAPPER-H group in one 8-byte entry (two
// 16-bit counters and a 32-bit bit-vector) and DAPPER-S's counters in
// 16 bits. One layout thus serves every NRH up to 131071 and up to 32
// banks per rank; the constructors refuse anything larger with an
// error.
//
// DAPPER-H's cipher work is shared, not owned. A mitigation's partner
// groups (each member's group in the opposite table) and an
// activation's group pair are pure functions of the two ciphers' keys,
// and every DAPPER-H with the same seed, channel, rank and epoch holds
// the same keys. So internal/core keeps both in process-wide memos
// keyed by the keys and width (partners.go): lockstep followers, the
// points of a sweep and concurrent pool workers read what any of them
// computed, and no tracker state has to be released. The partner memo
// holds at most 65,536 groups (32 MiB); the group memo holds at most
// 16 key pairs' direct-mapped tables of 8,192 one-word slots (64 KiB
// each, 1 MiB in all), and a slot names its row, so a racing read
// returns the right groups or misses.
//
// # Experiment orchestration (internal/harness)
//
// Every figure is dozens-to-hundreds of independent sim.Run calls.
// internal/harness turns them into jobs flowing through a pipeline:
//
//	jobs -> pool -> cache -> records
//
// A harness.Job pairs a Descriptor — the deterministic, hashable
// identity of one run (tracker + params, workload, attack, geometry,
// NRH, mode, windows, seed, probe switches), keyed by the SHA-256 of
// its JSON — with a closure producing the sim.Result. Every job comes
// from one value, exp.Run: its fields are every input a Result depends
// on, and only its methods derive the Descriptor, the traces, the
// sim.Config and the job, so a key and the simulation it names cannot
// drift apart. A harness.Pool fans jobs out over a bounded worker set
// (runtime.NumCPU() by default, -jobs flag), deduplicating by
// descriptor key so baselines shared between figures execute once. The
// pool dedups; -cache persists: a harness.Cache is a directory of JSON
// results content-addressed by the descriptor hash, attached only when
// -cache names one, so a rerun of the same suite by the same build
// simulates nothing. Pool.Records hands back
// the completed records in submission order, and harness.WriteJSONL
// writes them like every other output, so the file is the same at any
// worker count. The pool is the one sweep executor:
// dispatch starts at the first Wait or Close, and the jobs submitted by
// then that drive the same memory stream (harness.Job.Stream, filled by
// exp.Run.Job for unaudited runs without telemetry or attribution) run
// as one sim.Batch simulation, the other trackers shadowing the lead's
// in lockstep on a second goroutine. A member that throttles or
// diverges runs alone with its own Job.Run, so every Result stays
// byte-identical to an independent run.
//
// Each paper table and figure is an exp.Experiment declared as data:
// its title, header, notes and rows, where each computed cell names the
// points it reads. A point is one simulated run plus the baseline run
// it is normalized against (the insecure system at the figure's first
// NRH). exp.Generate submits both runs of every point of the selected
// figures to the pool before its first Wait, and the pool dedups them;
// then a pure function turns each figure's Results into its table, so
// tables are byte-identical at any worker count.
// `dapper experiments` drives the paper's figures this way; `dapper
// batch` runs arbitrary tracker x workload x NRH sweeps from flags
// straight to JSONL.
//
// Each -cache entry is a checksummed envelope, written via a temp file
// and rename, that names the build that wrote it (the SHA-256 of the
// executable). Another build's entry is a plain miss the next Put
// overwrites, so a model change is never served stale Results. An
// entry that fails verification is quarantined to *.corrupt and
// re-simulated, and opening a cache sweeps temp files and quarantines
// older than 15 minutes left by crashed runs. `make batch-smoke` gates
// the quarantine-and-heal path in CI.
//
// # Event-driven simulation engine (internal/sim, internal/mem, internal/cpu)
//
// sim.Run drives the system with one of two engines (sim.Config.Engine,
// -engine flag on every cmd): "cycle", the reference loop that ticks
// every controller, flushes the LLC write-back backlog and steps every
// core on every DRAM cycle; and "event" (the default), which advances
// time directly to the earliest wake point whenever components are
// quiescent. Both produce byte-identical Results — the equivalence
// matrix (sim.TestEngineEquivalence, exp.TestEngineEquivalenceAllTrackers,
// `make test-engine-equivalence`) enforces it for every tracker under
// benign and tailored-attack co-runs.
//
// The wake-time protocol: each component reports a wake no later than
// the next cycle it can change visible state, and guarantees that
// driving it only at such wakes reproduces the per-cycle trajectory
// exactly.
//
//   - mem.Controller.NextEvent returns the minimum of the next rank
//     refresh deadline, the tracker tick, and — when requests are
//     pending — a lower bound on the first scheduling attempt that could
//     start one. Failed attempts back off two cycles, so attempts live on
//     a 2-cycle grid; every nextConsider reset encodes its own anchor
//     cycle, and Tick's catch-up replays the skipped failed-attempt
//     trajectory so the grid parity matches a per-cycle driver's. That
//     makes an early wake Result-neutral: its Tick makes the failed
//     attempt and backoff a per-cycle driver makes at that grid point,
//     at the cost of one Tick. After an attempt that started a request,
//     with the demand queue at least a third full, the bound is the grid
//     point at the data-bus floor (dataBusFreeAt minus the row-conflict
//     latency), in O(1): on saturated perf-attack points it is the exact
//     answer ~95% of the time. The depth gate keeps it off lightly
//     loaded controllers, where it is mostly early (without it, ticks on
//     the benign point set rise 60%). Otherwise the bound is exact,
//     derived from bank/rank availability, tRC/tRRD spacing, throttling
//     (rh.Throttler.NextAllowed must be a pure, stable query) and
//     data-bus occupancy. Refresh and tracker ticks catch up on their
//     exact deadlines across a skip.
//   - cpu.Core.NextEvent returns a bubble horizon (the soonest the
//     trace's next memory access could dispatch at full width), the ROB
//     head's completion time when the core is full, or dram.Never when
//     progress depends on the memory system. The ROB is a head sequence
//     number, a count, and a ring of at most 128 memory entries (LLC
//     hits and in-flight reads): a bubble or posted write is ready from
//     the cycle after its dispatch, so it takes no slot, dispatching k
//     of them is count += k, and a head that is not a memory entry is
//     ready. Core.Step replays skipped interaction-free cycles exactly,
//     folding full-width retire runs and head-stalled windows in closed
//     form; a fold walks memory entries only, so a stretch costs
//     O(memory operations), not O(instructions). A backpressure-stalled
//     core is stepped at every iteration, because its retry outcome
//     depends on controller state.
//   - Each component caches its own wake: a controller's NextEvent
//     answer holds until Tick or a successful Enqueue, a core's until
//     Step, and the controller keeps its earliest refresh or tracker
//     deadline, which only refreshTick moves. The engine reads Wake()
//     to decide what to tick or step and knows no staleness rule. Only
//     Controller.Tick sets a request's Done/DoneAt or frees a queue
//     slot, so a core blocked on an in-flight head (wake dram.Never)
//     reads that head's Done on every NextEvent and recomputes once it
//     is set, and the LLC write-back backlog is flushed only on
//     iterations where a controller ticked or when its cached earliest
//     completion is due. Warmup and final
//     cycles are never skipped, so statistics snapshots observe the
//     same retirement state as the cycle engine.
//
// Large per-run arrays go through one process-wide free list
// (internal/cache/spare), keyed by element type and length. sim.run
// alone owns the LLC: snapshots copy its counters and the hierarchy
// dies with the run, so run defers cache.Release, and the next run with
// an LLC of the same size takes its 2 MiB of keys and LRU ticks. Whoever
// builds a tracker releases it (rh.Releaser) after its last Stats and
// Name read: run releases every tracker its factory built (the lockstep
// lead's through the shadow wrapper, which forwards Release),
// sim.Batch.Results releases each follower's, live or diverged, and
// NewBatch the probes of points that run alone. DAPPER-H takes its
// 64 KiB rank tables from the list and hands them back in Release, so
// an NRH sweep allocates them once per worker, not once per point.
// Other trackers' tables stay per run.
//
// Force `-engine cycle` when validating the event engine itself, when
// bisecting a suspected engine bug, or when adding a new component that
// does not yet implement the wake-time protocol; in every other case the
// event engine is faster. To compare the engines by hand, time
// `dapper experiments -exp fig11 -profile quick -jobs 1 -engine cycle`
// against the same command with `-engine event` (the cache key includes
// the engine, so one never serves the other's points).
//
// # Worst-case attack search (internal/attack Parametric, internal/adversary)
//
// The paper evaluates each tracker against the named attack its
// authors anticipated (attack.ForTracker). internal/adversary stress
// tests the resilience claim beyond that set: it searches a parametric
// attack space for the access pattern that maximizes benign-core
// slowdown against a chosen tracker.
//
// The space is attack.Params, driving the attack.Parametric kind: row
// working-set size and interleave, bank/rank fan-out, hot/cold row mix,
// inter-access compute bubbles, cacheable (LLC-polluting) fraction, and
// a phase period alternating the attack with a quiet pattern (on/off
// shapes that dodge throttling- and reset-based trackers). Every named
// Kind is a point in this space: attack.PointFor defines it, and
// attack.NewTrace builds every Kind with the one parametric generator
// (internal/attack/testdata/kinds.sha256.golden pins each Kind's
// stream). So the search starts from the known attacks and can only
// improve.
//
// The optimizer is black-box and deterministic: seeded random sampling
// over a projected search space (adversary.NewSpace), successive
// halving over shortened measurement horizons, then coordinate
// hill-climbing on the survivors at the full horizon. Each candidate
// evaluation is one harness job (an exp.Run), so the pool
// parallelizes, deduplicates and caches them; harness.Descriptor folds
// the canonical param-vector encoding into the cache key
// (AttackParams), making revisited points free while keeping nearby
// points from aliasing. The result is a per-tracker resilience report
// (adversary.Report): worst-found params, slowdown versus the
// hand-crafted tailored attack, and the full search trace — serialized
// deterministically, so equal -seed and -budget runs are byte-identical.
//
// A 30-second taste (tiny profile, three trackers):
//
//	go run ./cmd/dapper adversary -tracker hydra,comet,dapper-h -profile tiny -budget 10 -seed 1
//
// `make adversary-smoke` runs the CI-pinned variant, plus a short
// `-objective escapes` hunt against Hydra, and uploads the JSONL
// reports as a CI artifact. `dapper adversary` is the one entry
// point; in process, adversary.Search(opts, pool) returns the Report
// (the caller owns the pool, which can serve many searches), and
// Report.WriteJSONL writes the JSONL the subcommand saves as
// adversary-<tracker>.jsonl.
//
// # Shadow security oracle (internal/secaudit, dapper batch -audit)
//
// Performance is only half of a defense evaluation; the other half is
// whether the tracker actually holds its guarantee. internal/secaudit
// is an independent oracle for exactly that property: no DRAM row may
// absorb NRH hammering activations between two refreshes of that row.
//
// The oracle implements rh.Sink, the one passive event tap every
// memory controller exposes (mem.Controller.SetSink, wired through
// sim.Config.Sink and teed by rh.Tee with the telemetry and
// attribution folds). Of that stream it folds every ACT, every
// mitigation command with its blast radius (VRR at the mode's radius, Same-Bank RFM/DRFM
// fanned across bank groups), every per-rank REF — whose slots cycle
// over the row space, giving each row its tREFW refresh boundary — and
// every bulk structure-reset sweep, and passes the performance-side
// events through. From these it keeps a per-(channel,
// rank, bank) victim-side ledger: an ACT on row R charges R's
// neighbors; refreshing a row zeroes its charge; a row reaching NRH
// unrefreshed is an Escape. The report (secaudit.Report) carries
// escapes, distinct escaped rows, the maximum charge any row reached
// and the margin left — and, because it is derived purely from the
// deterministic event stream, it must be byte-identical across the
// event and cycle engines, making the oracle a second, independent
// equivalence check on the time-skip engine.
//
// The conformance sweep is an ordinary batch sweep with the oracle
// attached: exp.BatchRequest's Audit (and CountInjected) reach every
// run and its cache key. `dapper batch -audit` submits one request per
// -mode and -attack, writes each point's Result, its Audit report
// included, to batch.jsonl, and prints each tracker's verdict summed
// over its records there (one per unique point):
//
//	go run ./cmd/dapper batch -audit -profile tiny -tracker all -attack hammer,refresh,streaming -nrh 125 -check
//
// -check enforces the conformance expectation: the insecure baseline
// ("none") must escape under the tailored attacks while every real
// tracker reports zero. Audited points run the same shape as every
// other batch point (exp's dapperRun), so a streaming point runs on the
// scaled DAPPER geometry and `-attack none` on four benign copies.
// `make audit-smoke` is the CI-pinned variant; it reruns the sweep on
// -engine cycle and requires the same batch.jsonl once the cache key,
// engine tag, cached flag and elapsed time are stripped. The adversary
// search can hunt escapes directly with `-objective escapes`:
// candidates are then ranked by oracle verdict (escapes, then max
// charge) with slowdown as the tie-break, seeded, like the slowdown
// search, with every named kind, the focused hammer (attack.Hammer)
// included. In process, a
// secaudit.New oracle's Sink method is the sim.Config.Sink factory, and
// its Report is read once the run returns.
//
// Every run above has at most one attacker. The tier-1 test
// exp.TestMixSecauditTwoAttackerConformance covers two at once: two
// focused hammers beside two benign workloads, each benign core confined
// to its row-aligned quarter of the address space, audited at NRH 125
// for every tracker. The insecure baseline must escape and every real
// tracker must hold at zero. exp.TestEngineEquivalenceMixes checks that
// both engines agree on the same runs.
//
// # Observability (internal/telemetry, internal/diag, dapper sim -window)
//
// Every number above is a steady-state average over the measurement
// window; internal/telemetry adds the dynamics, at two levels.
//
// In-sim and deterministic: setting sim.Config.TelemetryWindow (off by
// default, -window on batch and sim) attaches a cycle-windowed
// sampler that folds per-core IPC and stall fraction, per-channel
// demand vs tracker-injected activation rates, mitigation commands by
// kind, controller queue occupancy, and tracker table occupancy and
// reset counts into a telemetry.Series embedded in sim.Result. The
// fold is exact under time-skip: components report increments at event
// boundaries — each controller through its one rh.Sink stream (ACT,
// mitigation, REF and bulk events plus queue and table samples), each
// core through cpu.Core.SetProbe, with the event engine's closed-form
// catch-ups emitting multi-cycle segments of identical per-cycle
// semantics — so the event and cycle engines produce
// byte-identical Series — enforced tracker-by-tracker in
// sim.TestEngineEquivalenceTelemetry, part of
// `make test-engine-equivalence`. Each series carries independently
// accumulated grand totals, and sim.Run cross-checks them against the
// final DRAM command counters on every windowed run: a fold that drops
// or double-counts an event fails the run instead of skewing a figure.
// With no consumer on, no sink attaches and the hot paths pay only a
// nil check. simbench's workloads run no sink, so its per-change
// wall-time bound covers that check.
// sim.TestEngineEquivalenceSinkStream also compares the raw event
// stream, not just its folds, across the engines.
//
// `dapper sim -window W` renders one windowed, attributed run per
// tracker as one report (see the attribution section below for its files) —
// the data behind mitigation-rate-vs-time and IPC-vs-time figures —
// and its -check replays the run on the other engine to assert
// byte-identical Results plus the series invariants and the
// containment of every measure-window DRAM counter (ACT, VRR, RFMsb,
// DRFMsb, bulk, REF) in the whole-run series totals
// (`make telemetry-smoke` is the CI-pinned variant). In process, the
// same report is one exp.Run with TelemetryWindow and Attribution set:
// its Exec returns the Series and the Attribution in the sim.Result.
//
// Harness level and wall-clock: telemetry.Tracer records per-job spans
// (queue wait, execution on a worker lane, cache hit) from
// the pool and exports Chrome trace-event JSON — open it at
// https://ui.perfetto.dev for a lane-per-worker timeline of a sweep —
// and harness.Pool.Stats exposes live submitted/deduplicated/ran/
// cache-hit/error counters with elapsed-time aggregates (cache hits and
// misses stay zero without -cache). Every sweep
// subcommand (experiments, batch, adversary) takes
// -telemetry dir/ to write trace.json + counters.json after the run,
// and -debug-addr to serve the same counters live over HTTP
// (internal/diag: expvar at /debug/vars plus the pprof handlers) while
// a long sweep is in flight. Tracing never perturbs results: spans are
// recorded outside the result path and the export is sorted, so equal
// span sets serialize identically.
//
// # Slowdown attribution (telemetry.Attribution, dapper sim -window)
//
// Telemetry says when the benign cores slowed down; attribution says
// why, and who. Setting sim.Config.Attribution (off by default, -attr
// on the sweep cmds) attaches a third fold to the same sink, plus the
// core probes' stall split, that classifies every cycle and every cycle
// of memory wait:
//
//   - Per-core CPI stacks (telemetry.CPIStack): each non-retiring
//     cycle is either dispatch (instructions retired), stall.rob (the
//     window is full behind an outstanding miss) or stall.bp (the
//     core is retrying a request the controller pushed back). The
//     split is exact — Dispatch+StallROB+StallBP == Cycles per core —
//     and the event engine's closed-form catch-ups fold multi-cycle
//     segments with identical per-cycle semantics, so both engines
//     produce byte-identical stacks.
//   - Per-core memory-wait blame (telemetry.MemBlame): each demand
//     read's enqueue-to-data time decomposes into nine buckets —
//     intrinsic service, row conflict, queue time behind other
//     demand, injected tracker traffic, mitigation blocks (VRR/RFM
//     the defense issued), refresh, bulk resets, throttling and
//     scheduling gaps. The telemetry.Recorder that folds the Series
//     also folds the controller's serve and block events — block causes and BlockHammer's
//     throttle-gate times travel in the events, and each bank's row
//     opener is rebuilt from the serves — into a per-bank ledger of
//     blocking segments (first claimer wins, so overlapping causes
//     never double-bill), and the buckets sum exactly to the measured
//     wait: conservation is asserted by the Recorder's one Finish
//     (Attribution.Validate and CheckSeries) on every run, per window
//     and grand total.
//   - The N×N blame matrix (Attribution.Matrix): wait cycles with an
//     identifiable culprit core — conflicts against rows it opened,
//     queue time behind its serves, mitigation blocks it triggered —
//     are charged victim→culprit. Under an attack, the attacker's
//     column is the per-victim number behind the headline slowdown;
//     injected (culpritless) traffic stays out of the matrix by
//     construction.
//
// When TelemetryWindow is also set the stacks ride the Series as
// per-window lanes (Series.Blame), cross-checked against the grand
// totals by Attribution.CheckSeries. With the flag off the fold is not
// attached — the hot paths pay a nil check, as with telemetry. To price attribution by
// hand, time a `dapper batch` sweep with `-attr` against the same sweep
// without it. Byte-identical engine equivalence is enforced tracker-by-
// tracker in sim, exp and adversary attribution equivalence tests,
// part of `make test-engine-equivalence`.
//
// A windowed `dapper sim` always attributes. It runs its trackers on
// the harness pool every sweep subcommand uses and writes their records
// to sim.jsonl (harness.Record, the record batch and experiments write:
// the Result's Series carries every window cell, each core's stall
// split and blame buckets included, and its Attribution the whole-run
// stacks and the matrix). One renderer (internal/telemetry/render.go)
// writes each tracker's timeline-<id>.txt (ASCII CPI stacks, bucket
// bars and the matrix). Every windowed run checks
// Attribution.Validate and Attribution.CheckSeries next to the series
// gates; -check adds the other-engine replay on the same pool (`make
// blame-smoke` runs it for every tracker under the focused hammer, with
// the matrices uploaded as an artifact). The adversary evals carry the headline buckets as fields
// (blame_mitigation/blame_inject — whether a found slowdown flows
// through the defense itself or through plain bandwidth contention),
// and every -attr batch record carries the whole Attribution.
// Live, internal/diag's BlameAgg taps harness.Options.OnResult and
// serves the accumulating per-core stacks at /debug/vars under
// "blame" while a sweep runs. `dapper sim -tracker dapper-h,none
// -attack refresh -window 10` writes the stacks of an attacked DAPPER-H run next
// to the insecure baseline's (timeline-<id>.txt).
//
// # Static contracts (contracts_test.go)
//
// Three invariants carry the whole evaluation — runs are
// deterministic, cache keys are complete, serialized artifacts are
// byte-stable. Complete keys hold by construction (exp.Run derives
// each job's key and its simulation from one value; a test perturbs
// every leaf of Run and requires the key to move). The other two are
// plain tests over the module's own non-test source, so `go test ./...`
// fails on a violation and names its position:
//
//   - TestContractNodeterm forbids wall-clock reads (time.Now, Since,
//     Sleep, timers), global math/rand, environment reads and, in the
//     core tier, goroutine spawning. It parses source without a type
//     checker and flags any reference to a banned function, so a
//     method value (now := time.Now) counts like a call. One switch
//     (tierOf) tiers packages: cmd, harness, exp, diag and goldentest
//     may spawn goroutines, examples are exempt, and every other
//     package — any new one too — is core.
//   - TestContractMaporder flags `for range` over a map whose body
//     sends, formats, hashes or appends to an outer slice, since
//     iteration order would leak into output. The collect-then-sort
//     idiom is recognized: an append is fine when a sort.*/slices.*
//     call on the same slice follows in the same block. It type-checks
//     against the export data of one `go list -export -deps ./...`.
//
// The only exception marker is `//dapper:wallclock <why>`, on the
// offending line, the line above it or the function's doc comment;
// the harness tier's elapsed-time measurements use it, and a bare
// marker is itself a finding. Both checks also run over want-comment
// fixtures under testdata/contracts. The simulator's per-event paths
// (the controller's emit, pick, earliestReady and NextEvent, rh.Tee's
// fan-out, the telemetry sink and core probe) are held allocation-free
// by testing.AllocsPerRun tests beside them.
//
// See README.md for a quickstart. `dapper list experiments` prints the
// experiment index, and each rendered table's notes set the paper's
// values beside the measured ones.
package dapper
