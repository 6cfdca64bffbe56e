package attack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/goldentest"
)

// streamDigest returns the hex SHA-256 of tr's first n records, each
// encoded as Bubbles and Addr (little-endian 64-bit) then the IsWrite
// and NonCacheable flags (one byte each).
func streamDigest(tr cpu.Trace, n int) string {
	h := sha256.New()
	var b [18]byte
	flag := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for i := 0; i < n; i++ {
		r := tr.Next()
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Bubbles))
		binary.LittleEndian.PutUint64(b[8:], r.Addr)
		b[16], b[17] = flag(r.IsWrite), flag(r.NonCacheable)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestParametricExpressesEveryKind pins every Kind's stream and proves
// it is a point of the parametric space. testdata/kinds.sha256.golden
// holds the digest of each Kind's first 90,000 records at NRH 500 on
// the baseline geometry and on 2048-row banks; the Kind's trace and
// the Parametric trace of PointFor's point must both match it.
// HydraConflict's warm-up is NGC*groups*banks = 200*3*128 = 76,800
// accesses at both geometries, so 90,000 records cross into its steady
// phase.
func TestParametricExpressesEveryKind(t *testing.T) {
	const nrh, records = 500, 90_000
	geos := []struct {
		name string
		g    dram.Geometry
	}{{"baseline", dram.Baseline()}, {"scaled-2048", dram.Scaled(2048)}}
	var sb strings.Builder
	for _, gc := range geos {
		for _, k := range Kinds() {
			if k == Parametric {
				if _, ok := PointFor(k, gc.g, nrh); ok {
					t.Fatal("Parametric must not have a point for itself")
				}
				continue
			}
			p, ok := PointFor(k, gc.g, nrh)
			if !ok {
				t.Fatalf("PointFor(%v) not expressible", k)
			}
			want := streamDigest(MustTrace(Config{Geometry: gc.g, NRH: nrh, Kind: k}), records)
			got := streamDigest(MustTrace(Config{Geometry: gc.g, NRH: nrh, Kind: Parametric, Params: p}), records)
			if got != want {
				t.Fatalf("%v at %s: PointFor's stream %s differs from the kind's %s", k, gc.name, got, want)
			}
			fmt.Fprintf(&sb, "%s %s %s\n", gc.name, k, want)
		}
	}
	goldentest.Check(t, "kinds.sha256.golden", []byte(sb.String()))
}

// TestParametricRespectsGeometryBounds is the property test: whatever
// (finite, non-negative) point the search throws at the generator, every
// emitted access must decompose to an in-bounds location and survive a
// Compose round-trip.
func TestParametricRespectsGeometryBounds(t *testing.T) {
	geos := []dram.Geometry{dram.Baseline(), dram.Scaled(1024), geo()}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		g := geos[trial%len(geos)]
		randPattern := func() Pattern {
			return Pattern{
				Rows:          rng.Intn(1 << 20),
				Groups:        rng.Intn(64),
				GroupSpan:     uint32(rng.Intn(1 << 18)),
				RowStride:     uint32(rng.Intn(512)),
				RowBase:       uint32(rng.Intn(1 << 18)),
				RowHold:       rng.Intn(4096),
				Banks:         rng.Intn(4096),
				Ranks:         rng.Intn(8),
				HotFrac:       rng.Float64() * 1.5, // deliberately out of range
				HotRows:       rng.Intn(256),
				HotBase:       uint32(rng.Intn(1 << 18)),
				HotStride:     uint32(rng.Intn(1 << 16)),
				Bubbles:       rng.Intn(5000),
				CacheableFrac: rng.Float64() * 1.5,
				StreamBytes:   uint64(rng.Intn(1 << 30)),
			}
		}
		p := Params{
			Steady:       randPattern(),
			Warm:         randPattern(),
			WarmAccesses: uint64(rng.Intn(500)),
			Period:       uint64(rng.Intn(300)),
		}
		tr, err := NewTrace(Config{Geometry: g, Kind: Parametric, Params: p, Seed: uint64(trial) + 1})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 2000; i++ {
			rec := tr.Next()
			addr := cpu.StripNC(rec.Addr)
			if addr >= g.TotalBytes() {
				t.Fatalf("trial %d record %d: address %#x beyond capacity %#x", trial, i, addr, g.TotalBytes())
			}
			l := g.Decompose(addr)
			if l.Row >= g.RowsPerBank || l.Channel >= g.Channels || l.Rank >= g.Ranks ||
				l.BankGroup >= g.BankGroups || l.Bank >= g.BanksPerGroup {
				t.Fatalf("trial %d record %d: out-of-bounds loc %+v", trial, i, l)
			}
			if g.Compose(l) != addr {
				t.Fatalf("trial %d record %d: compose round-trip lost %#x", trial, i, addr)
			}
		}
	}
}

// TestParametricRankFanout: limiting Ranks must keep every activation in
// the allowed ranks while still composing real addresses.
func TestParametricRankFanout(t *testing.T) {
	g := geo() // 2 ranks
	tr := MustTrace(Config{Geometry: g, Kind: Parametric, Params: Params{
		Steady: Pattern{Rows: 64, Ranks: 1},
	}})
	for i := 0; i < 1000; i++ {
		l := g.Decompose(cpu.StripNC(tr.Next().Addr))
		if l.Rank != 0 {
			t.Fatalf("rank fan-out 1 leaked into rank %d", l.Rank)
		}
	}
}

// TestParametricSeedDeterminism: identical seeds replay identical
// stochastic mixes; different seeds diverge.
func TestParametricSeedDeterminism(t *testing.T) {
	g := geo()
	p := Params{Steady: Pattern{Rows: 128, HotFrac: 0.5, HotRows: 2, CacheableFrac: 0.3}}
	mk := func(seed uint64) []cpu.Record {
		tr := MustTrace(Config{Geometry: g, Kind: Parametric, Params: p, Seed: seed})
		out := make([]cpu.Record, 500)
		for i := range out {
			out[i] = tr.Next()
		}
		return out
	}
	a, b, c := mk(7), mk(7), mk(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical stochastic traces")
	}
}

// TestParametricPhaseAlternation: with Period set, the trace must cycle
// steady and warm patterns, each resuming its own cursor.
func TestParametricPhaseAlternation(t *testing.T) {
	g := geo()
	p := Params{
		Steady: Pattern{HotFrac: 1, HotRows: 1, HotBase: 11},
		Warm:   Pattern{CacheableFrac: 1, StreamBytes: 64, Bubbles: 99},
		Period: 10,
	}
	tr := MustTrace(Config{Geometry: g, Kind: Parametric, Params: p})
	for i := 0; i < 60; i++ {
		rec := tr.Next()
		inSteady := (i/10)%2 == 0
		if inSteady != rec.NonCacheable {
			t.Fatalf("record %d: phase schedule broken (noncacheable=%v)", i, rec.NonCacheable)
		}
		if !inSteady && rec.Bubbles != 99 {
			t.Fatalf("record %d: warm phase lost its pacing", i)
		}
		if inSteady {
			if row := g.Decompose(cpu.StripNC(rec.Addr)).Row; row != 11 {
				t.Fatalf("record %d: steady phase hammered row %d, want 11", i, row)
			}
		}
	}
}

// TestKindParseRoundTrip: ParseKind inverts String over the full kind
// enumeration, including the new Parametric kind.
func TestKindParseRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("no-such-attack"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
}

// TestParamsCanonicalDistinguishesNearbyPoints: the canonical encoding
// feeding cache keys must separate close-by search points.
func TestParamsCanonicalDistinguishesNearbyPoints(t *testing.T) {
	a := Params{Steady: Pattern{Rows: 384, HotFrac: 0.25}}
	b := a
	b.Steady.Rows = 385
	c := a
	c.Steady.HotFrac = 0.2501
	d := a
	d.Period = 1
	for _, other := range []Params{b, c, d} {
		if a.Canonical() == other.Canonical() {
			t.Fatalf("canonical encoding aliases %+v and %+v", a, other)
		}
	}
	if a.Canonical() != a.Canonical() {
		t.Fatal("canonical encoding unstable")
	}
}

// TestParamsValidate rejects non-finite fractions and negative fields.
func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Steady: Pattern{HotFrac: math.NaN()}},
		{Warm: Pattern{CacheableFrac: math.Inf(1)}},
		{Steady: Pattern{Rows: -1}},
		{Warm: Pattern{Bubbles: -5}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
		if _, err := NewTrace(Config{Geometry: geo(), Kind: Parametric, Params: p}); err == nil {
			t.Fatalf("case %d: NewTrace accepted invalid params", i)
		}
	}
	if err := (Params{}).Validate(); err != nil {
		t.Fatalf("zero params rejected: %v", err)
	}
}
