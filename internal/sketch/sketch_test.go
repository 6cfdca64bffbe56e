package sketch

import (
	"testing"
	"testing/quick"
)

// --- CountMin -----------------------------------------------------------

func TestCountMinBasic(t *testing.T) {
	cm := NewCountMin(4, 512, 1)
	if cm.Rows() != 4 || cm.Width() != 512 {
		t.Fatalf("dims = %d x %d", cm.Rows(), cm.Width())
	}
	for i := 0; i < 10; i++ {
		cm.Add(42)
	}
	if got := cm.Estimate(42); got < 10 {
		t.Fatalf("estimate = %d, want >= 10", got)
	}
}

func TestCountMinAddReturnsEstimate(t *testing.T) {
	cm := NewCountMin(4, 512, 1)
	var last uint32
	for i := 0; i < 5; i++ {
		last = cm.Add(7)
	}
	if last != cm.Estimate(7) {
		t.Fatalf("Add returned %d, Estimate = %d", last, cm.Estimate(7))
	}
}

// Count-Min never underestimates: for any multiset of inserts, the
// estimate of each key is >= its true count.
func TestCountMinNeverUnderestimatesProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		cm := NewCountMin(3, 64, 99)
		truth := map[uint64]uint32{}
		for _, k := range keys {
			cm.Add(uint64(k))
			truth[uint64(k)]++
		}
		for k, n := range truth {
			if cm.Estimate(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMinReset(t *testing.T) {
	cm := NewCountMin(2, 16, 5)
	cm.Add(1)
	cm.Add(1)
	cm.Reset()
	if got := cm.Estimate(1); got != 0 {
		t.Fatalf("estimate after reset = %d", got)
	}
}

func TestCountMinDistinctKeysLowCollision(t *testing.T) {
	cm := NewCountMin(4, 4096, 7)
	for k := uint64(0); k < 100; k++ {
		cm.Add(k)
	}
	// With 100 keys in 4x4096 counters, most keys should estimate exactly 1.
	exact := 0
	for k := uint64(0); k < 100; k++ {
		if cm.Estimate(k) == 1 {
			exact++
		}
	}
	if exact < 90 {
		t.Fatalf("only %d/100 keys estimated exactly", exact)
	}
}

func TestCountMinPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCountMin(0, 10, 1)
}

// --- MisraGries ---------------------------------------------------------

func TestMisraGriesBasic(t *testing.T) {
	mg := NewMisraGries(4)
	if mg.K() != 4 {
		t.Fatalf("K = %d", mg.K())
	}
	mg.Add(1)
	mg.Add(1)
	mg.Add(2)
	if mg.Count(1) != 2 || mg.Count(2) != 1 {
		t.Fatalf("counts = %d, %d", mg.Count(1), mg.Count(2))
	}
	if !mg.Tracked(1) || mg.Tracked(99) {
		t.Fatal("tracked flags wrong")
	}
}

func TestMisraGriesSpilloverGrowsOnDistinctStream(t *testing.T) {
	// This is exactly the ABACUS Perf-Attack: distinct keys through a
	// full table pump the spillover counter.
	mg := NewMisraGries(8)
	for k := uint64(0); k < 8; k++ {
		mg.Add(k)
	}
	if mg.Spillover() != 0 {
		t.Fatalf("spillover = %d before overflow", mg.Spillover())
	}
	for k := uint64(100); k < 150; k++ {
		mg.Add(k)
	}
	if mg.Spillover() == 0 {
		t.Fatal("distinct-key stream should raise spillover")
	}
}

// The tracker-safety guarantee: Count(key) — stored count, or spillover
// for untracked keys — never underestimates the true occurrence count,
// so no aggressor row can be missed.
func TestMisraGriesNeverUnderestimatesProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		mg := NewMisraGries(4)
		truth := map[uint64]uint32{}
		for _, k := range keys {
			mg.Add(uint64(k))
			truth[uint64(k)]++
		}
		for k, n := range truth {
			if mg.Count(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The ABACuS overflow window: a distinct-key stream through a K-entry
// table raises spillover roughly once per K activations, so reaching a
// threshold T takes ~K*T activations (the Perf-Attack period).
func TestMisraGriesSpilloverPeriodIsKTimesThreshold(t *testing.T) {
	const k = 16
	mg := NewMisraGries(k)
	acts := 0
	key := uint64(0)
	for mg.Spillover() < 10 {
		mg.Add(key)
		key++
		acts++
		if acts > 100*k*10 {
			t.Fatal("spillover never reached threshold")
		}
	}
	if acts < k*10/2 || acts > 3*k*10 {
		t.Fatalf("spillover 10 after %d acts, want ~%d", acts, k*10)
	}
}

func TestMisraGriesNeverExceedsK(t *testing.T) {
	mg := NewMisraGries(4)
	for k := uint64(0); k < 1000; k++ {
		mg.Add(k)
		if mg.Len() > 4 {
			t.Fatalf("len %d exceeds k", mg.Len())
		}
	}
}

func TestMisraGriesSetCount(t *testing.T) {
	mg := NewMisraGries(4)
	mg.Add(5)
	mg.Add(5)
	mg.SetCount(5, 0)
	if mg.Count(5) != 0 {
		t.Fatalf("count = %d after SetCount", mg.Count(5))
	}
	mg.SetCount(99, 7) // untracked: no-op
	if mg.Tracked(99) {
		t.Fatal("SetCount must not insert")
	}
}

func TestMisraGriesReset(t *testing.T) {
	mg := NewMisraGries(2)
	for k := uint64(0); k < 50; k++ {
		mg.Add(k)
	}
	mg.Reset()
	if mg.Len() != 0 || mg.Spillover() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestMisraGriesEntries(t *testing.T) {
	mg := NewMisraGries(4)
	mg.Add(1)
	mg.Add(2)
	seen := map[uint64]uint32{}
	mg.Entries(func(k uint64, c uint32) { seen[k] = c })
	if len(seen) != 2 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("entries = %v", seen)
	}
}

func TestMisraGriesPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMisraGries(0)
}

func TestMisraGriesHeavyHitterSurvives(t *testing.T) {
	// A key hammered far more than the distinct-noise stream must stay
	// tracked with a high count: the tracker property ABACUS needs.
	mg := NewMisraGries(8)
	for i := 0; i < 500; i++ {
		mg.Add(0xAAAA)
		mg.Add(uint64(i) + 1) // distinct noise
	}
	if !mg.Tracked(0xAAAA) {
		t.Fatal("heavy hitter evicted")
	}
	if mg.Count(0xAAAA) < 400 {
		t.Fatalf("heavy hitter count = %d", mg.Count(0xAAAA))
	}
}

// --- CountingBloom ------------------------------------------------------

func TestCountingBloomBasic(t *testing.T) {
	cb := NewCountingBloom(1024, 4, 1)
	if cb.M() != 1024 || cb.K() != 4 {
		t.Fatalf("dims = %d, %d", cb.M(), cb.K())
	}
	for i := 0; i < 20; i++ {
		cb.Add(77)
	}
	if cb.Estimate(77) < 20 {
		t.Fatalf("estimate = %d", cb.Estimate(77))
	}
}

func TestCountingBloomNeverUnderestimatesProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		cb := NewCountingBloom(128, 3, 4)
		truth := map[uint64]uint32{}
		for _, k := range keys {
			cb.Add(uint64(k))
			truth[uint64(k)]++
		}
		for k, n := range truth {
			if cb.Estimate(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountingBloomReset(t *testing.T) {
	cb := NewCountingBloom(64, 2, 9)
	cb.Add(5)
	cb.Reset()
	if cb.Estimate(5) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestCountingBloomFalsePositivesGrowWhenSmall(t *testing.T) {
	// A small filter loaded with many rows overestimates untouched keys:
	// the false-positive mechanism behind BlockHammer's benign slowdown.
	cb := NewCountingBloom(64, 2, 13)
	for k := uint64(0); k < 512; k++ {
		cb.Add(k)
	}
	over := 0
	for k := uint64(10000); k < 10100; k++ {
		if cb.Estimate(k) > 0 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("expected some false positives in an overloaded filter")
	}
}

func TestCountingBloomPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCountingBloom(10, 0, 1)
}
