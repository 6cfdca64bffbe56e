package dram

import "testing"

// FuzzDecompose fuzzes the physical address mapping over arbitrary
// geometries and addresses: Decompose/Compose must be exact inverses on
// line-aligned in-capacity addresses, every decomposed field must be in
// bounds, Channel must agree with Decompose on any address, and the
// rank-row index space (the domain DAPPER's cipher permutes) must
// round-trip too. Every attack generator, tracker and
// the secaudit oracle lean on these bijections. The precomputed Decoder
// must equal both Geometry methods on the fuzzed geometry and on its
// power-of-two rounding, so the shift-and-mask path and the fallback
// are both covered by every input.
func FuzzDecompose(f *testing.F) {
	f.Add(uint64(0), uint8(2), uint8(2), uint8(8), uint8(4), uint32(64*1024), uint16(128))
	f.Add(uint64(0x12345678), uint8(1), uint8(1), uint8(1), uint8(1), uint32(1), uint16(1))
	f.Add(uint64(1<<40), uint8(2), uint8(4), uint8(8), uint8(4), uint32(2048), uint16(128))
	f.Add(uint64(64), uint8(3), uint8(2), uint8(5), uint8(3), uint32(777), uint16(9))
	f.Fuzz(func(t *testing.T, addr uint64, chans, ranks, bgs, banks uint8, rowsPB uint32, rowLines uint16) {
		g := Geometry{
			Channels:      1 + int(chans%8),
			Ranks:         1 + int(ranks%8),
			BankGroups:    1 + int(bgs%16),
			BanksPerGroup: 1 + int(banks%8),
			RowsPerBank:   1 + rowsPB%(1<<20),
			RowBytes:      64 * (1 + int(rowLines%256)),
			LineBytes:     64,
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("constructed geometry invalid: %v", err)
		}
		if ch, want := g.Channel(addr), g.Decompose(addr).Channel; ch != want {
			t.Fatalf("Channel(%#x) = %d, Decompose says %d for %s", addr, ch, want, g)
		}
		checkDecoder(t, g, addr)
		p2 := Geometry{
			Channels:      1 << (chans % 4),
			Ranks:         1 << (ranks % 4),
			BankGroups:    1 << (bgs % 5),
			BanksPerGroup: 1 << (banks % 4),
			RowsPerBank:   1 << (rowsPB % 21),
			RowBytes:      64 << (rowLines % 9),
			LineBytes:     64,
		}
		if d := p2.Decoder(); !d.pow2 {
			t.Fatalf("power-of-two geometry %s decodes by division", p2)
		}
		checkDecoder(t, p2, addr)
		addr %= g.TotalBytes()
		addr -= addr % uint64(g.LineBytes)

		l := g.Decompose(addr)
		if l.Channel < 0 || l.Channel >= g.Channels ||
			l.Rank < 0 || l.Rank >= g.Ranks ||
			l.BankGroup < 0 || l.BankGroup >= g.BankGroups ||
			l.Bank < 0 || l.Bank >= g.BanksPerGroup ||
			l.Row >= g.RowsPerBank ||
			l.Col < 0 || l.Col >= g.BlocksPerRow() {
			t.Fatalf("decomposed field out of bounds: %+v for %s", l, g)
		}
		if got := g.Compose(l); got != addr {
			t.Fatalf("compose(decompose(%#x)) = %#x via %+v", addr, got, l)
		}
		if l2 := g.Decompose(g.Compose(l)); l2 != l {
			t.Fatalf("loc does not round-trip: %+v vs %+v", l, l2)
		}

		idx := g.RankRowIndex(l)
		if idx >= g.RowsPerRank() {
			t.Fatalf("rank-row index %d outside %d", idx, g.RowsPerRank())
		}
		back := g.FromRankRowIndex(l.Channel, l.Rank, idx)
		if back.Channel != l.Channel || back.Rank != l.Rank ||
			back.BankGroup != l.BankGroup || back.Bank != l.Bank || back.Row != l.Row {
			t.Fatalf("rank-row index does not round-trip: %+v vs %+v", l, back)
		}
	})
}

// checkDecoder asserts that g's Decoder agrees with Decompose and
// Channel on addr.
func checkDecoder(t *testing.T, g Geometry, addr uint64) {
	t.Helper()
	d := g.Decoder()
	if got, want := d.Decompose(addr), g.Decompose(addr); got != want {
		t.Fatalf("Decoder().Decompose(%#x) = %+v, Decompose says %+v for %s", addr, got, want, g)
	}
	if got, want := d.Channel(addr), g.Channel(addr); got != want {
		t.Fatalf("Decoder().Channel(%#x) = %d, Channel says %d for %s", addr, got, want, g)
	}
}
