package llbc

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsBadWidths(t *testing.T) {
	for _, bits := range []int{-1, 0, 1, 63, 64, 100} {
		if _, err := New(bits, 1); err == nil {
			t.Fatalf("New(%d) should fail", bits)
		}
	}
}

func TestNewAcceptsValidWidths(t *testing.T) {
	for _, bits := range []int{2, 3, 21, 32, 62} {
		c, err := New(bits, 1)
		if err != nil {
			t.Fatalf("New(%d): %v", bits, err)
		}
		if c.Bits() != bits {
			t.Fatalf("Bits() = %d, want %d", c.Bits(), bits)
		}
		if c.Domain() != 1<<uint(bits) {
			t.Fatalf("Domain() = %d", c.Domain())
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) should panic")
		}
	}()
	MustNew(0, 1)
}

// Exhaustive bijection check on a small domain, including an odd width
// that exercises cycle-walking.
func TestBijectionExhaustive(t *testing.T) {
	for _, bits := range []int{8, 11, 13} {
		c := MustNew(bits, 0xDEADBEEF)
		seen := make([]bool, c.Domain())
		for x := uint64(0); x < c.Domain(); x++ {
			y := c.Encrypt(x)
			if y >= c.Domain() {
				t.Fatalf("bits=%d: Encrypt(%d)=%d out of domain", bits, x, y)
			}
			if seen[y] {
				t.Fatalf("bits=%d: collision at output %d", bits, y)
			}
			seen[y] = true
			if back := c.Decrypt(y); back != x {
				t.Fatalf("bits=%d: Decrypt(Encrypt(%d)) = %d", bits, x, back)
			}
		}
	}
}

// Property: decrypt inverts encrypt on the 21-bit domain the paper uses
// (2M rows per rank).
func TestRoundTripProperty21(t *testing.T) {
	c := MustNew(21, 42)
	f := func(x uint32) bool {
		v := uint64(x) & (c.Domain() - 1)
		return c.Decrypt(c.Encrypt(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: encrypt inverts decrypt too (bijection in both directions).
func TestInverseRoundTripProperty(t *testing.T) {
	c := MustNew(21, 7)
	f := func(x uint32) bool {
		v := uint64(x) & (c.Domain() - 1)
		return c.Encrypt(c.Decrypt(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyChangesMapping(t *testing.T) {
	c := MustNew(21, 1)
	before := make([]uint64, 64)
	for i := range before {
		before[i] = c.Encrypt(uint64(i))
	}
	c.Rekey(2)
	same := 0
	for i := range before {
		if c.Encrypt(uint64(i)) == before[i] {
			same++
		}
	}
	// A handful of fixed points is fine; the mapping as a whole must move.
	if same > 8 {
		t.Fatalf("rekey left %d/64 mappings unchanged", same)
	}
}

func TestRekeyStillBijective(t *testing.T) {
	c := MustNew(10, 1)
	c.Rekey(99)
	seen := make([]bool, c.Domain())
	for x := uint64(0); x < c.Domain(); x++ {
		y := c.Encrypt(x)
		if seen[y] {
			t.Fatalf("collision after rekey at %d", y)
		}
		seen[y] = true
	}
}

func TestSameSeedSameMapping(t *testing.T) {
	a := MustNew(21, 1234)
	b := MustNew(21, 1234)
	for x := uint64(0); x < 256; x++ {
		if a.Encrypt(x) != b.Encrypt(x) {
			t.Fatalf("same seed gave different mapping at %d", x)
		}
	}
	// Keys names the mapping: equal for a seed reached by New or by
	// Rekey, different for another seed.
	c := MustNew(21, 1)
	if c.Keys() == a.Keys() {
		t.Fatal("different seeds gave equal keys")
	}
	c.Rekey(1234)
	if c.Keys() != a.Keys() {
		t.Fatalf("Rekey(1234) keys %v, New(21, 1234) keys %v", c.Keys(), a.Keys())
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := MustNew(21, 1)
	b := MustNew(21, 2)
	same := 0
	for x := uint64(0); x < 256; x++ {
		if a.Encrypt(x) == b.Encrypt(x) {
			same++
		}
	}
	if same > 16 {
		t.Fatalf("different seeds agreed on %d/256 points", same)
	}
}

func TestEncryptPanicsOutOfDomain(t *testing.T) {
	c := MustNew(8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Encrypt(256)
}

func TestDecryptPanicsOutOfDomain(t *testing.T) {
	c := MustNew(8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Decrypt(1 << 20)
}

// The mapping should spread consecutive inputs across the output space
// rather than preserving locality: count how many consecutive input
// pairs stay consecutive in output.
func TestDiffusion(t *testing.T) {
	c := MustNew(21, 3)
	adjacent := 0
	const n = 4096
	for x := uint64(0); x+1 < n; x++ {
		a, b := c.Encrypt(x), c.Encrypt(x+1)
		d := int64(a) - int64(b)
		if d == 1 || d == -1 {
			adjacent++
		}
	}
	if adjacent > 8 {
		t.Fatalf("%d/%d consecutive pairs stayed adjacent", adjacent, n)
	}
}

// Outputs should be roughly uniform across group buckets (group size 256,
// as DAPPER uses): no bucket should get wildly more than its share.
func TestGroupUniformity(t *testing.T) {
	c := MustNew(21, 11)
	const groups = 1 << 13 // 8192 groups of 256 rows
	counts := make([]int, groups)
	const n = 1 << 16
	for x := uint64(0); x < n; x++ {
		counts[c.Encrypt(x)>>8]++
	}
	// Expected 8 per bucket; flag any bucket above 40 (5x expectation).
	for g, got := range counts {
		if got > 40 {
			t.Fatalf("group %d got %d hits (expected ~8)", g, got)
		}
	}
}

func TestKeyStream(t *testing.T) {
	a := KeyStream(5, 8)
	b := KeyStream(5, 8)
	if len(a) != 8 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("KeyStream not deterministic")
		}
	}
	c := KeyStream(6, 8)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}
