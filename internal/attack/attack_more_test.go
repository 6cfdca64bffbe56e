package attack

import (
	"testing"

	"dapper/internal/cpu"
	"dapper/internal/dram"
)

func TestAllAttacksLineAligned(t *testing.T) {
	g := geo()
	for _, k := range []Kind{CacheThrash, HydraConflict, StreamingSweep, RATThrash, DistinctRows, Refresh, Hammer} {
		tr := MustTrace(Config{Geometry: g, NRH: 500, Kind: k})
		for i := 0; i < 200; i++ {
			if addr := cpu.StripNC(tr.Next().Addr); addr&63 != 0 {
				t.Fatalf("%v produced unaligned address %x", k, addr)
			}
		}
	}
}

func TestAllAttacksAreMemoryBound(t *testing.T) {
	g := geo()
	for _, k := range []Kind{CacheThrash, HydraConflict, StreamingSweep, RATThrash, DistinctRows, Refresh, Hammer} {
		tr := MustTrace(Config{Geometry: g, NRH: 500, Kind: k})
		for i := 0; i < 50; i++ {
			if tr.Next().Bubbles != 0 {
				t.Fatalf("%v has compute bubbles", k)
			}
		}
	}
}

// TestAttackAddressesDecomposable: every kind's addresses stay inside
// the geometry, including 1024-row banks, below RATThrash's rows
// 1000..1383.
func TestAttackAddressesDecomposable(t *testing.T) {
	for _, g := range []dram.Geometry{geo(), dram.Scaled(1024)} {
		for _, k := range []Kind{HydraConflict, StreamingSweep, RATThrash, DistinctRows, Refresh, Hammer} {
			tr := MustTrace(Config{Geometry: g, NRH: 500, Kind: k})
			for i := 0; i < 500; i++ {
				addr := cpu.StripNC(tr.Next().Addr)
				l := g.Decompose(addr)
				if back := g.Compose(l); back != addr {
					t.Fatalf("%v at %d rows/bank: address %x does not round-trip", k, g.RowsPerBank, addr)
				}
				if l.Row >= g.RowsPerBank {
					t.Fatalf("%v at %d rows/bank: row %d out of range", k, g.RowsPerBank, l.Row)
				}
			}
		}
	}
}

func TestAttacksAlternateChannels(t *testing.T) {
	g := geo()
	for _, k := range []Kind{StreamingSweep, DistinctRows, Refresh} {
		tr := MustTrace(Config{Geometry: g, NRH: 500, Kind: k})
		seen := map[int]int{}
		for i := 0; i < 256; i++ {
			l := g.Decompose(cpu.StripNC(tr.Next().Addr))
			seen[l.Channel]++
		}
		for ch := 0; ch < g.Channels; ch++ {
			if seen[ch] < 64 {
				t.Fatalf("%v starves channel %d (%v)", k, ch, seen)
			}
		}
	}
}

func TestConsecutiveACTsAvoidSameBank(t *testing.T) {
	// Bank-rotor attacks must not issue back-to-back ACTs to one bank
	// (that would be tRC-limited instead of tRRD-limited).
	g := geo()
	for _, k := range []Kind{StreamingSweep, DistinctRows, Refresh} {
		tr := MustTrace(Config{Geometry: g, NRH: 500, Kind: k})
		lastBank := -1
		for i := 0; i < 500; i++ {
			l := g.Decompose(cpu.StripNC(tr.Next().Addr))
			b := l.Channel<<16 | g.FlatBank(l)
			if b == lastBank {
				t.Fatalf("%v hit the same bank twice in a row", k)
			}
			lastBank = b
		}
	}
}

func TestMappingCaptureSRespectsBudget(t *testing.T) {
	g := geo()
	d := mustDapperS(t, g)
	res := MappingCaptureS(d, g, 100) // tiny budget: can't even charge NM-1
	if res.Captured {
		t.Fatal("capture impossible within 100 ACTs")
	}
	if res.ACTs > 100 {
		t.Fatalf("budget exceeded: %d", res.ACTs)
	}
}

func TestMappingCaptureHRespectsBudget(t *testing.T) {
	g := geo()
	d := mustDapperH(t, g)
	res := MappingCaptureH(d, g, 5, 100)
	if res.ACTs > 101 {
		t.Fatalf("budget exceeded: %d", res.ACTs)
	}
}
