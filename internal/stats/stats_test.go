package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatalf("mean of empty = %v, want 0", Mean(nil))
	}
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Fatalf("mean = %v, want 2.5", got)
	}
}

func TestGeoMeanBasic(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEq(got, 2) {
		t.Fatalf("geomean = %v, want 2", got)
	}
}

func TestGeoMeanSkipsNonPositive(t *testing.T) {
	if got := GeoMean([]float64{-1, 0, 4, 1}); !almostEq(got, 2) {
		t.Fatalf("geomean = %v, want 2", got)
	}
}

func TestGeoMeanEmptyAndAllNonPositive(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("geomean of empty should be 0")
	}
	if GeoMean([]float64{0, -3}) != 0 {
		t.Fatal("geomean of non-positive should be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 {
		t.Fatalf("min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Fatalf("max = %v", Max(xs))
	}
	if Sum(xs) != 11 {
		t.Fatalf("sum = %v", Sum(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("min/max of empty should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); !almostEq(got, 25) {
		t.Fatalf("p50 = %v, want 25", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("percentile of empty should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

// TestPercentileSortedFastPath pins the sorted-input fast path: an
// already-sorted slice must not be copied (zero allocations) and must
// produce the same answer as the general entry point.
func TestPercentileSortedFastPath(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, p := range []float64{0, 12.5, 37.5, 50, 95, 100} {
		if got, want := PercentileSorted(xs, p), Percentile(xs, p); !almostEq(got, want) {
			t.Fatalf("p%v: PercentileSorted = %v, Percentile = %v", p, got, want)
		}
	}
	if PercentileSorted(nil, 50) != 0 {
		t.Fatal("PercentileSorted of empty should be 0")
	}
	allocs := testing.AllocsPerRun(10, func() {
		Percentile(xs, 95)
	})
	if allocs != 0 {
		t.Fatalf("Percentile on sorted input allocated %v times per run; want 0 (copy+sort skipped)", allocs)
	}
}

// TestPercentileFastPathEquivalence checks the sorted fast path and
// the copy+sort slow path agree on random permutations.
func TestPercentileFastPathEquivalence(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p := float64(pRaw) / 2 // 0..127.5 covers both clamps
		got := Percentile(xs, p)
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		return almostEq(got, PercentileSorted(cp, p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNaNBehavior pins what the helpers do with NaN inputs so callers
// (and future refactors) cannot silently change it: Mean and GeoMean
// propagate NaN; Percentile sorts NaNs first, so p0 of a NaN-bearing
// slice is NaN while p100 is the real maximum.
func TestNaNBehavior(t *testing.T) {
	nan := math.NaN()
	if !math.IsNaN(Mean([]float64{1, nan, 3})) {
		t.Fatal("Mean with NaN input should propagate NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, nan, 3})) {
		t.Fatal("GeoMean with NaN input should propagate NaN")
	}
	if !math.IsNaN(Percentile([]float64{2, nan, 1}, 0)) {
		t.Fatal("Percentile p0 with NaN input should be NaN (NaNs sort first)")
	}
	if got := Percentile([]float64{2, nan, 1}, 100); got != 2 {
		t.Fatalf("Percentile p100 with NaN input = %v, want 2", got)
	}
}

func TestSlowdown(t *testing.T) {
	if !almostEq(Slowdown(0.9), 0.1) {
		t.Fatalf("slowdown(0.9) = %v", Slowdown(0.9))
	}
	if Slowdown(1.2) != 0 {
		t.Fatal("slowdown above 1 should clamp to 0")
	}
}

// Property: mean is always between min and max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: geomean of positive values is between min and max.
func TestGeoMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1 // strictly positive
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-6 && g <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
