package harness_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/harness"
)

// These tests pin cache-key coverage at the encoder level: every
// Descriptor leaf must perturb Key(), and every attack.Params leaf must
// perturb its Canonical() encoding. A field added to one of these types
// without reaching its encoding trips one of them.
// exp.TestRunKeyCoversEveryLeaf checks the same from the run side,
// through Run.Desc().Key().

// leafPaths enumerates index paths to every leaf field, descending
// into struct-typed fields so each nested knob gets its own mutation.
func leafPaths(t reflect.Type, prefix []int) [][]int {
	var paths [][]int
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(slices.Clone(prefix), i)
		if f.Type.Kind() == reflect.Struct {
			paths = append(paths, leafPaths(f.Type, idx)...)
			continue
		}
		paths = append(paths, idx)
	}
	return paths
}

func pathName(t reflect.Type, path []int) string {
	var parts []string
	for _, i := range path {
		f := t.Field(i)
		parts = append(parts, f.Name)
		t = f.Type
	}
	return strings.Join(parts, ".")
}

// perturb changes a settable leaf value to a guaranteed-different one.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "~mut")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	default:
		t.Fatalf("perturb: unhandled kind %s — extend the backstop for the new field type", v.Kind())
	}
}

// TestDescriptorKeyCoversEveryField mutates each Descriptor leaf in
// turn and requires the content address to move. A field that Key()
// silently drops would let two distinct experiment points alias one
// cache entry and serve a stale result for the new point.
func TestDescriptorKeyCoversEveryField(t *testing.T) {
	base := harness.Descriptor{
		Tracker: "graphene", Mode: "rfm", NRH: 500,
		Workload: "stream", Attack: "double", Benign4: false,
		AttackParams: "s(r2)", Geometry: dram.Baseline(),
		LLCBytes: 1 << 23, Warmup: 1000, Measure: 4000, Seed: 7,
		Engine: "event", Audit: true, CountInjected: true,
		TelemetryWindow: 20000, Attribution: true,
	}
	if base.Key() != base.Key() {
		t.Fatal("Descriptor.Key is not deterministic")
	}
	dt := reflect.TypeOf(base)
	for _, path := range leafPaths(dt, nil) {
		d := base
		perturb(t, reflect.ValueOf(&d).Elem().FieldByIndex(path))
		if d.Key() == base.Key() {
			t.Errorf("mutating Descriptor.%s does not change Key(); the field is silently dropped from the cache key", pathName(dt, path))
		}
	}
}

// TestAttackParamsCanonicalCoversEveryField does the same for the
// parametric attack point: all 15 Pattern knobs in both phases plus
// the phase schedule must reach Canonical(), or the adversary search
// would cache-serve results across distinct points.
func TestAttackParamsCanonicalCoversEveryField(t *testing.T) {
	base := attack.Params{
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
	pt := reflect.TypeOf(base)
	for _, path := range leafPaths(pt, nil) {
		p := base
		perturb(t, reflect.ValueOf(&p).Elem().FieldByIndex(path))
		if p.Canonical() == base.Canonical() {
			t.Errorf("mutating Params.%s does not change Canonical(); nearby search points would alias", pathName(pt, path))
		}
	}
}
