package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
)

// batchedTestRequest builds a small sweep exercising both grouping
// regimes: benign (one stream per workload, the NRH axis shares it)
// and attacked (one stream per workload x NRH). It carries no
// telemetry or attribution, since runs with either run alone.
func batchedTestRequest(kind attack.Kind) BatchRequest {
	p := Tiny()
	return BatchRequest{
		Trackers:  []string{"none", "hydra", "dapper-h", "blockhammer"},
		Workloads: p.Workloads,
		NRHs:      []uint32{500, 1000},
		Attack:    kind,
		Mode:      rh.VRR1,
		Profile:   p,
	}
}

// TestEngineEquivalenceBatchedSweep is the exp-level half of the
// batched safety net: for every sweep point, the record produced by
// BatchedSweep (lead, lockstep or lone run) must carry a Result
// byte-identical to the one job.Run produces independently, and the
// descriptor sequence must match the Jobs descriptors exactly (same
// identities, same order).
func TestEngineEquivalenceBatchedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long; skipped in -short")
	}
	for _, kind := range []attack.Kind{attack.None, attack.Refresh} {
		t.Run(kind.String(), func(t *testing.T) {
			req := batchedTestRequest(kind)

			jobs, err := req.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			batchSink := harness.NewMemorySink()
			records, stats, err := BatchedSweep(req, harness.Options{Workers: 2, Sinks: []harness.Sink{batchSink}})
			if err != nil {
				t.Fatal(err)
			}
			if len(records) != len(jobs) {
				t.Fatalf("batched sweep produced %d records for %d jobs", len(records), len(jobs))
			}
			if got := batchSink.Records(); len(got) != len(records) {
				t.Fatalf("sink saw %d records, want %d", len(got), len(records))
			}

			for i, job := range jobs {
				// The sweep must address the cache with exactly the Jobs
				// identities, in the same order.
				if records[i].Desc != job.Desc {
					t.Fatalf("record %d descriptor diverges:\n batched: %+v\n jobs:    %+v",
						i, records[i].Desc, job.Desc)
				}
				if records[i].Key != job.Desc.Key() {
					t.Fatalf("record %d key %q != descriptor key %q", i, records[i].Key, job.Desc.Key())
				}
				want, err := job.Run()
				if err != nil {
					t.Fatal(err)
				}
				wantJS, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				gotJS, err := json.Marshal(records[i].Result)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantJS, gotJS) {
					t.Fatalf("%s: batched result diverges from serial run:\n want %s\n got  %s",
						job.Desc.String(), wantJS, gotJS)
				}
			}

			if stats.Points != len(jobs) || stats.Lockstep+stats.FullRuns != len(jobs) {
				t.Fatalf("stats don't cover the sweep: %+v", stats)
			}
			// Benign sweeps share one stream per workload; with an attack
			// the NRH axis splits the streams. Each stream has a lead, and
			// blockhammer throttles, so it runs alone at every NRH.
			groups := len(req.Workloads)
			if kind != attack.None {
				groups = len(req.Workloads) * len(req.NRHs)
			}
			if want := groups + len(req.Workloads)*len(req.NRHs); stats.FullRuns < want {
				t.Fatalf("%d full runs, want at least %d leads and throttlers: %+v", stats.FullRuns, want, stats)
			}
			if kind == attack.None && stats.Lockstep == 0 {
				t.Fatalf("benign sweep ran nothing in lockstep: %+v", stats)
			}
		})
	}
}

// TestEngineEquivalenceBatchedSweepCache pins the cache contract: a
// second BatchedSweep over a warm cache simulates nothing and returns
// byte-identical results, and a Jobs/pool run over the same cache is
// all hits too (shared keys, not merely equal results).
func TestEngineEquivalenceBatchedSweepCache(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long; skipped in -short")
	}
	req := batchedTestRequest(attack.None)
	cache, err := harness.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	cold, coldStats, err := BatchedSweep(req, harness.Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.CacheHits != 0 {
		t.Fatalf("cold sweep hit the cache: %+v", coldStats)
	}
	warm, warmStats, err := BatchedSweep(req, harness.Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.CacheHits != len(warm) || warmStats.FullRuns+warmStats.Lockstep != 0 {
		t.Fatalf("warm sweep resimulated: %+v", warmStats)
	}
	for i := range cold {
		wantJS, _ := json.Marshal(cold[i].Result)
		gotJS, _ := json.Marshal(warm[i].Result)
		if !bytes.Equal(wantJS, gotJS) {
			t.Fatalf("%s: warm result diverges from cold", cold[i].Desc.String())
		}
		if !warm[i].Cached {
			t.Fatalf("%s: warm record not marked cached", warm[i].Desc.String())
		}
	}

	// A plain pool over the same cache must hit every entry.
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	pool := harness.NewPool(harness.Options{Workers: 2, Cache: cache})
	for _, j := range jobs {
		pool.Submit(j)
	}
	pool.Wait()
	if ps := pool.Stats(); ps.Ran != 0 || ps.CacheHits != len(jobs) {
		t.Fatalf("pool resimulated over the batched cache: %+v", ps)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamKeyImpliesSameTraces pins the grouping contract the pool
// relies on: runs that share a stream key drive the same traces. For
// each run shape, every tracker, mode and NRH variant of the shape is
// built; any two with equal keys must yield identical first 20K
// records on every core, so runs whose traces differ get different
// keys. Shapes whose traces ignore NRH must also share one key, or the
// pool would never group them.
func TestStreamKeyImpliesSameTraces(t *testing.T) {
	const records = 20000
	hom := Tiny().BaseRun()
	hom.Workload = "429.mcf"
	benign4 := hom
	benign4.Benign4 = true
	// hydra-conflict is the named kind whose trace NRH sizes.
	conflict := hom
	conflict.Attack = AttackPoint{Kind: attack.HydraConflict}
	parametric := hom
	parametric.Attack = AttackPoint{Kind: attack.Parametric, Params: fullParams()}

	shapes := []struct {
		name string
		run  Run
		// nrhKey: the key keeps NRH (the shape has an attacker);
		// nrhTrace: the traces really differ across NRH.
		nrhKey, nrhTrace bool
	}{
		{"benign", hom, false, false},
		{"benign4", benign4, false, false},
		{"attack", conflict, true, true},
		{"parametric", parametric, true, false},
	}
	digestOf := make(map[string]string) // stream key -> trace digest
	for _, sh := range shapes {
		keys := make(map[string]bool)
		byNRH := make(map[uint32]string)
		for _, tracker := range []string{"none", "dapper-h"} {
			for _, mode := range []rh.MitigationMode{rh.VRR1, rh.VRR2} {
				for _, nrh := range []uint32{125, 500} {
					r := sh.run
					r.Tracker, r.Mode, r.NRH = tracker, mode, nrh
					if err := r.Validate(); err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
					traces, err := r.traces()
					if err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
					h := sha256.New()
					for _, tr := range traces {
						for i := 0; i < records; i++ {
							fmt.Fprintf(h, "%+v;", tr.Next())
						}
						h.Write([]byte("|"))
					}
					digest := hex.EncodeToString(h.Sum(nil))
					key := streamKey(r)
					if prev, ok := digestOf[key]; ok && prev != digest {
						t.Errorf("%s %s/%s/NRH %d: shares stream key %s with a run whose traces differ", sh.name, tracker, mode, nrh, key)
					}
					digestOf[key] = digest
					keys[key] = true
					byNRH[nrh] = digest
				}
			}
		}
		if want := 1; !sh.nrhKey && len(keys) != want {
			t.Errorf("%s: %d stream keys across tracker, mode and NRH, want %d", sh.name, len(keys), want)
		}
		if sh.nrhTrace && byNRH[125] == byNRH[500] {
			t.Errorf("%s: NRH no longer shapes the attacker trace, so the shape cannot guard the NRH key", sh.name)
		}
	}
}

// TestEngineEquivalencePoolGroups is the pool-level cross-check of stream
// grouping: submitting a job set and then waiting must give the same
// per-future outcome (Result, error, cache hit) and the same counters
// with one worker and with two, and every Result must equal the job's
// independent Run. The set has a throttler (blockhammer), a diverging
// tracker (hydra at NRH 16), a cached lead with uncached followers, an
// uncached lead with a cached follower, and attack runs, which carry no
// stream and run alone.
func TestEngineEquivalencePoolGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a dozen tiny runs; skipped in -short")
	}
	p := Tiny()
	run := func(workload, tracker string, kind attack.Kind, nrh uint32) Run {
		r := p.BaseRun()
		r.Workload, r.Tracker, r.Attack, r.NRH = workload, tracker, AttackPoint{Kind: kind}, nrh
		return r
	}
	w0, w1 := p.Workloads[0].Name, p.Workloads[1].Name
	runs := []Run{
		run(w0, "none", attack.None, 500),
		run(w0, "dapper-h", attack.None, 500), // cached follower
		run(w0, "dapper-h", attack.None, 1000),
		run(w0, "blockhammer", attack.None, 500),
		run(w0, "hydra", attack.None, 16),
		run(w1, "none", attack.None, 500), // cached lead
		run(w1, "dapper-h", attack.None, 500),
		run(w1, "dapper-h", attack.None, 1000),
		run(w0, "none", attack.Refresh, 500),
		run(w0, "dapper-h", attack.Refresh, 500), // cached, alone
		run(w0, "hydra", attack.Refresh, 500),
	}
	cachedRuns := map[int]bool{1: true, 5: true, 9: true}

	jobs := make([]harness.Job, len(runs))
	want := make([][]byte, len(runs))
	for i, r := range runs {
		job, err := r.Job()
		if err != nil {
			t.Fatal(err)
		}
		if attacked := r.Attack.Kind != attack.None; (job.Stream == nil) != attacked {
			t.Fatalf("%s: has stream %v, want %v (an unaudited run without telemetry has one unless it is attacked)",
				job.Desc, job.Stream != nil, !attacked)
		}
		jobs[i] = job
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	type outcome struct {
		result string
		err    error
		cached bool
	}
	var outcomes [2][]outcome
	var stats [2]harness.Stats
	for wi, workers := range []int{1, 2} {
		cache, err := harness.NewCache("")
		if err != nil {
			t.Fatal(err)
		}
		for i := range cachedRuns {
			var res sim.Result
			if err := json.Unmarshal(want[i], &res); err != nil {
				t.Fatal(err)
			}
			if err := cache.Put(jobs[i].Desc.Key(), res); err != nil {
				t.Fatal(err)
			}
		}
		pool := harness.NewPool(harness.Options{Workers: workers, Cache: cache})
		futures := make([]*harness.Future, len(jobs))
		for i, job := range jobs {
			futures[i] = pool.Submit(job)
		}
		for i, f := range futures {
			res, err := f.Wait()
			js, _ := json.Marshal(res)
			outcomes[wi] = append(outcomes[wi], outcome{string(js), err, f.Cached()})
			if err != nil {
				t.Fatalf("workers %d: %s: %v", workers, f.Desc(), err)
			}
			if !bytes.Equal(js, want[i]) {
				t.Errorf("workers %d: %s: pooled result diverges from job.Run:\n want %s\n got  %s", workers, f.Desc(), want[i], js)
			}
			if f.Cached() != cachedRuns[i] {
				t.Errorf("workers %d: %s: cached %v, want %v", workers, f.Desc(), f.Cached(), cachedRuns[i])
			}
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		stats[wi] = pool.Stats()
	}
	for i := range jobs {
		if outcomes[0][i] != outcomes[1][i] {
			t.Errorf("%s: outcome differs between 1 and 2 workers", jobs[i].Desc)
		}
	}
	s1, s2 := stats[0], stats[1]
	if s1.Ran != s2.Ran || s1.Lockstep != s2.Lockstep || s1.CacheHits != s2.CacheHits {
		t.Errorf("grouping depends on the worker count: %+v vs %+v", s1, s2)
	}
	// Full runs: the two benign leads, blockhammer, the diverged hydra
	// and the two uncached attack runs. Lockstep: dapper-h 1000 on w0
	// and on w1.
	if s1.Ran != 6 || s1.Lockstep != 2 || s1.CacheHits != len(cachedRuns) {
		t.Errorf("got %d full, %d lockstep, %d cached; want 6, 2, %d", s1.Ran, s1.Lockstep, s1.CacheHits, len(cachedRuns))
	}
}
