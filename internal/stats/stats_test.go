package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatalf("mean of empty = %v, want 0", Mean(nil))
	}
	if Max(nil) != 0 {
		t.Fatalf("max of empty = %v, want 0", Max(nil))
	}
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	if got := Max([]float64{3, -1, 7, 2}); got != 7 {
		t.Fatalf("max = %v, want 7", got)
	}
}

// TestNaNBehavior pins what Mean does with NaN inputs so callers (and
// future refactors) cannot silently change it: it propagates NaN.
func TestNaNBehavior(t *testing.T) {
	nan := math.NaN()
	if !math.IsNaN(Mean([]float64{1, nan, 3})) {
		t.Fatal("Mean with NaN input should propagate NaN")
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
		return m >= slices.Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
