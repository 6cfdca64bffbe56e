package exp

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/rh"
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

// TestRunRejectsTrackerLimits pins that a configuration the DAPPER
// constructors refuse (NM beyond the 16-bit counters, more banks per
// rank than DAPPER-H's 32-bit bit-vector) fails Validate and Exec with
// an error instead of panicking in the tracker factory.
func TestRunRejectsTrackerLimits(t *testing.T) {
	wide := Tiny().BaseRun().Geometry
	wide.BankGroups, wide.BanksPerGroup = 8, 8 // 64 banks per rank
	for _, tc := range []struct {
		tracker string
		nrh     uint32
		geo     *dram.Geometry
	}{
		{"dapper-h", 131072, nil},
		{"dapper-s", 131072, nil},
		{"dapper-h", 500, &wide},
	} {
		r := leafBases()["refresh"]
		r.Tracker, r.NRH = tc.tracker, tc.nrh
		if tc.geo != nil {
			r.Geometry = *tc.geo
		}
		if err := r.Validate(); err == nil {
			t.Errorf("%s at NRH %d, %d banks: Validate accepted", tc.tracker, tc.nrh, r.Geometry.BanksPerRank())
		}
		if _, err := r.Exec(); err == nil {
			t.Errorf("%s at NRH %d, %d banks: Exec returned no error", tc.tracker, tc.nrh, r.Geometry.BanksPerRank())
		}
	}
	r := leafBases()["refresh"]
	r.NRH = 131070
	if err := r.Validate(); err != nil {
		t.Errorf("dapper-h at NRH 131070: %v", err)
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

// TestRunRejectsParametricPointOnNamedAttack pins that a named attack
// carrying a parametric point fails Validate and Job: the point would
// not reach the trace, and the key would alias the named attack's.
func TestRunRejectsParametricPointOnNamedAttack(t *testing.T) {
	r := leafBases()["refresh"]
	r.Attack.Params = fullParams()
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "takes no parametric point") {
		t.Fatalf("Validate: a parametric point on a named attack must error, got %v", err)
	}
	if _, err := r.Job(); err == nil || !strings.Contains(err.Error(), "takes no parametric point") {
		t.Fatalf("Job: a parametric point on a named attack must error, got %v", err)
	}
}
