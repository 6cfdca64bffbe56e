package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/workloads"
)

// fullParams sets every attack.Params leaf to a distinct non-zero value.
func fullParams() attack.Params {
	return attack.Params{
		Steady: attack.Pattern{
			Rows: 8, Groups: 2, GroupSpan: 64, RowStride: 2, RowBase: 100,
			RowHold: 4, Banks: 8, Ranks: 1, HotFrac: 0.25, HotRows: 2,
			HotBase: 10, HotStride: 3, Bubbles: 5, CacheableFrac: 0.1,
			StreamBytes: 1 << 20,
		},
		Warm: attack.Pattern{
			Rows: 4, Groups: 1, GroupSpan: 32, RowStride: 1, RowBase: 50,
			RowHold: 2, Banks: 4, Ranks: 1, HotFrac: 0.5, HotRows: 1,
			HotBase: 5, HotStride: 2, Bubbles: 1, CacheableFrac: 0.2,
			StreamBytes: 1 << 19,
		},
		WarmAccesses: 1000, Period: 5000,
	}
}

// leafBases are valid runs that between them make every leaf of Run
// live: each run shape, audited and not. All use
// mode-honouring trackers — the others key at VRR-BR1 by design,
// because that is the mode they run at.
func leafBases() map[string]Run {
	p := Tiny()
	p.TelemetryWindow, p.Attribution = dram.US(5), true
	hom := p.BaseRun()
	hom.Tracker, hom.Mode, hom.NRH, hom.Workload = "dapper-h", rh.VRR2, 250, "429.mcf"
	hom.LLCBytes, hom.Engine = 4<<20, "event"

	parametric := hom
	parametric.Attack = AttackPoint{Kind: attack.Parametric, Params: fullParams()}
	parametric.Audit = true

	refresh := hom
	refresh.Attack = AttackPoint{Kind: attack.Refresh}

	benign4 := hom
	benign4.Tracker, benign4.Benign4 = "para", true
	return map[string]Run{"parametric": parametric, "refresh": refresh, "benign4": benign4}
}

type leaf struct {
	path string
	v    reflect.Value
}

// runLeaves lists every scalar leaf of v, descending into structs.
func runLeaves(v reflect.Value, path string, out *[]leaf) {
	if v.Kind() != reflect.Struct {
		*out = append(*out, leaf{path, v})
		return
	}
	for i := 0; i < v.NumField(); i++ {
		runLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, out)
	}
}

// typeLeaves lists every scalar leaf path of t: the set
// TestRunKeyCoversEveryLeaf must cover.
func typeLeaves(t reflect.Type, path string, out map[string]bool) {
	if t.Kind() != reflect.Struct {
		out[path] = true
		return
	}
	for i := 0; i < t.NumField(); i++ {
		typeLeaves(t.Field(i).Type, path+"."+t.Field(i).Name, out)
	}
}

// candidates returns replacement values for a leaf, in trial order.
func candidates(v reflect.Value) []any {
	switch v.Kind() {
	case reflect.String:
		var out []any
		for _, s := range append(KnownTrackers(), "429.mcf", "433.milc", "ycsb_a", "event", "cycle",
			attack.None.String(), attack.Refresh.String(), attack.StreamingSweep.String()) {
			if s != v.String() {
				out = append(out, s)
			}
		}
		return out
	case reflect.Bool:
		return []any{!v.Bool()}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n := v.Int()
		return []any{n + 1, max(2*n, 2), n - 1}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n := v.Uint()
		return []any{n + 1, max(2*n, 2)}
	case reflect.Float32, reflect.Float64:
		return []any{v.Float() + 0.25, v.Float() - 0.25}
	}
	return nil
}

func setLeaf(v reflect.Value, x any) {
	switch x := x.(type) {
	case string:
		v.SetString(x)
	case bool:
		v.SetBool(x)
	case int64:
		v.SetInt(x)
	case uint64:
		v.SetUint(x)
	case float64:
		v.SetFloat(x)
	}
}

// TestRunKeyCoversEveryLeaf perturbs every leaf of Run — each
// attack.Pattern field of both phases included — and
// requires Desc().Key() to move whenever the perturbed run is still
// valid. A leaf the key dropped would let two distinct simulations
// alias one cache entry; a leaf that no valid perturbation reaches is
// reported too, so a new field cannot dodge the check.
func TestRunKeyCoversEveryLeaf(t *testing.T) {
	want := map[string]bool{}
	typeLeaves(reflect.TypeOf(Run{}), "Run", want)
	covered := map[string]bool{}
	for name, base := range leafBases() {
		if err := base.Validate(); err != nil {
			t.Fatalf("base %s: %v", name, err)
		}
		baseKey := base.Desc().Key()
		if base.Desc().Key() != baseKey {
			t.Fatalf("base %s: Key is not deterministic", name)
		}
		var back Run
		if raw, err := json.Marshal(base); err != nil {
			t.Fatal(err)
		} else if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, base) {
			t.Errorf("base %s does not survive a JSON round trip:\n got %+v\nwant %+v", name, back, base)
		}
		var probe []leaf
		runLeaves(reflect.ValueOf(&base).Elem(), "Run", &probe)
		for i, l := range probe {
			for _, x := range candidates(l.v) {
				r := base
				var ls []leaf
				runLeaves(reflect.ValueOf(&r).Elem(), "Run", &ls)
				setLeaf(ls[i].v, x)
				if r.Validate() != nil {
					continue
				}
				covered[l.path] = true
				if r.Desc().Key() == baseKey {
					t.Errorf("base %s: setting %s to %v leaves Desc().Key() unchanged", name, l.path, x)
				}
				break
			}
		}
	}
	for path := range want {
		if !covered[path] {
			t.Errorf("%s: no base run reaches this leaf with a valid perturbation; extend leafBases", path)
		}
	}
}

// TestRunKeyContinuity pins Desc().Key() for one run per former job
// builder against the keys those builders produced, so warm disk caches
// and committed JSONL stay valid.
func TestRunKeyContinuity(t *testing.T) {
	p, q := Tiny(), Quick()
	w, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	batch := func(req BatchRequest) Run {
		t.Helper()
		runs, err := req.runs()
		if err != nil {
			t.Fatal(err)
		}
		return runs[0]
	}
	ws := []workloads.Workload{w}
	tp := p
	tp.TelemetryWindow, tp.Attribution = dram.US(10), true
	hammer := p.BaseRun()
	hammer.Tracker, hammer.Mode, hammer.NRH, hammer.Workload = "para", rh.RFMsb, 125, w.Name
	hammer.Attack = AttackPoint{Kind: attack.Parametric, Params: hammerParams()}
	hammer.Audit, hammer.CountInjected = true, true
	adv := p.BaseRun()
	adv.Tracker, adv.NRH, adv.Workload, adv.Measure = "comet", 250, w.Name, dram.US(10)
	adv.Attack = AttackPoint{Kind: attack.Parametric, Params: attack.Params{
		Steady:       attack.Pattern{Rows: 16, Groups: 2, Banks: 4, HotFrac: 0.5, HotRows: 2, HotBase: 9, HotStride: 3, Bubbles: 1},
		WarmAccesses: 100, Period: 4000,
	}}
	advBase := p.BaseRun()
	advBase.Workload, advBase.Measure = w.Name, dram.US(10)
	fig5 := q.perfAttackRun(w, "start", attack.StreamingSweep, q.NRH)
	fig5.Geometry.Channels, fig5.Geometry.Ranks, fig5.LLCBytes = 8, 4, 2<<20*4

	for _, tc := range []struct {
		name string
		run  Run
		key  string
	}{
		{"batch benign4", batch(BatchRequest{Trackers: []string{"dapper-h"}, Workloads: ws, NRHs: []uint32{500}, Attack: attack.None, Profile: p}),
			"2eb4b5c5ce37bfa25e101b82d00514bdb82b32ea441218b94c1834df58daecbb"},
		{"batch streaming", batch(BatchRequest{Trackers: []string{"hydra"}, Workloads: ws, NRHs: []uint32{125}, Attack: attack.StreamingSweep, Mode: rh.VRR2, Profile: q}),
			"1503890ca42fc104a15c98e99beff32ca47f3808ace7e145ec600ace112d0822"},
		{"audited hammer +inj", hammer, "b8985ae5ef088125be120c43929d4b6c88ebcd5ba10180ee95a26f263795741c"},
		{"adversary parametric", adv, "2f2dc8a2db50b652ad6f557907c15d2582101ec3336fb77fd13b81c430c03b79"},
		{"adversary baseline", advBase, "8c97781f78e6de79126095e5ddd44ef2ec7fd4f3b8d0fcf0060ba15e561853c4"},
		{"telemetry + attribution", batch(BatchRequest{Trackers: []string{"dapper-h"}, Workloads: ws, NRHs: []uint32{500}, Attack: attack.Refresh, Profile: tp}),
			"a49fc830c5b9bc6c6145b84bb236da0bd2031554d25006085898ac50aa3a7570"},
		{"figure LLC sweep", fig5, "22c52840b7ef8124ada2db09705030a6ff211fbb1ec868be57692dc2bca12a61"},
	} {
		if err := tc.run.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := tc.run.Desc().Key(); got != tc.key {
			t.Errorf("%s: key %s, want %s (%+v)", tc.name, got, tc.key, tc.run.Desc())
		}
	}
}

// TestRunValidateRejectsNegativeWindows pins that a negative warmup,
// measure or telemetry window fails validation instead of reaching the
// simulator.
func TestRunValidateRejectsNegativeWindows(t *testing.T) {
	for _, mut := range []func(*Run){
		func(r *Run) { r.Warmup = -1 },
		func(r *Run) { r.Measure = -1 },
		func(r *Run) { r.TelemetryWindow = -1 },
	} {
		r := leafBases()["refresh"]
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", r)
		}
	}
}
