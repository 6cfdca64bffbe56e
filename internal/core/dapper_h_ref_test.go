package core

import (
	"fmt"
	"reflect"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/llbc"
	"dapper/internal/rh"
)

// refDapperH is DAPPER-H as it stood with three parallel per-group
// slices (32-bit counters, 64-bit bit-vector). It is the reference
// TestDapperHMatchesReference holds the packed-entry tracker to: every
// observable must agree after every call.
type refDapperH struct {
	cfg     Config
	channel int
	nm      uint32
	ranks   []refHRank
	nextRst dram.Cycle
	epoch   uint64
	stats   rh.Stats

	singleSharedMitigations uint64
}

type refHRank struct {
	cipher1 *llbc.Cipher
	cipher2 *llbc.Cipher
	rgc1    []uint32
	rgc2    []uint32
	bitvec  []uint64
}

func newRefDapperH(channel int, cfg Config) *refDapperH {
	cfg = cfg.withDefaults()
	d := &refDapperH{
		cfg:     cfg,
		channel: channel,
		nm:      cfg.NM(),
		ranks:   make([]refHRank, cfg.Geometry.Ranks),
		nextRst: resetWindow,
	}
	ng := cfg.NumGroups()
	for r := range d.ranks {
		seed := cfg.Seed ^ uint64(channel)<<32 ^ uint64(r)<<16
		d.ranks[r] = refHRank{
			cipher1: llbc.MustNew(cfg.AddressBits(), seed),
			cipher2: llbc.MustNew(cfg.AddressBits(), seed^0xD0E5C0DE),
			rgc1:    make([]uint32, ng),
			rgc2:    make([]uint32, ng),
			bitvec:  make([]uint64, ng),
		}
	}
	return d
}

func (d *refDapperH) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	d.stats.Activations++
	rk := &d.ranks[loc.Rank]
	idx := d.cfg.Geometry.RankRowIndex(loc)
	g1 := rk.cipher1.Encrypt(idx) >> groupShift
	g2 := rk.cipher2.Encrypt(idx) >> groupShift
	mask := uint64(1) << uint(d.cfg.Geometry.BankInRank(loc))
	if rk.bitvec[g1]&mask == 0 {
		rk.bitvec[g1] |= mask
		if rk.rgc2[g2] < d.nm {
			rk.rgc2[g2]++
		}
	} else {
		if rk.rgc1[g1] < d.nm {
			rk.rgc1[g1]++
		}
		if rk.rgc2[g2] < d.nm {
			rk.rgc2[g2]++
		}
		rk.bitvec[g1] = mask
	}
	if rk.rgc1[g1] >= d.nm && rk.rgc2[g2] >= d.nm {
		buf = d.mitigate(rk, loc, g1, g2, buf)
	}
	return buf
}

func (d *refDapperH) mitigate(rk *refHRank, loc dram.Loc, g1, g2 uint64, buf []rh.Action) []rh.Action {
	d.stats.Mitigations++
	kind := d.cfg.Mode.ActionKind()
	var reset1 uint32
	for i := uint64(0); i < groupSize; i++ {
		orig := rk.cipher1.Decrypt(g1<<groupShift + i)
		og2 := rk.cipher2.Encrypt(orig) >> groupShift
		if og2 == g2 {
			continue
		}
		if c := rk.rgc2[og2]; c > reset1 && c < d.nm {
			reset1 = c
		}
	}
	var reset2 uint32
	shared := 0
	for i := uint64(0); i < groupSize; i++ {
		orig := rk.cipher2.Decrypt(g2<<groupShift + i)
		og1 := rk.cipher1.Encrypt(orig) >> groupShift
		if og1 == g1 {
			mloc := d.cfg.Geometry.FromRankRowIndex(loc.Channel, loc.Rank, orig)
			buf = append(buf, rh.Action{Kind: kind, Loc: mloc, Row: mloc.Row})
			d.stats.VictimRefreshes++
			shared++
			continue
		}
		if c := rk.rgc1[og1]; c > reset2 && c < d.nm {
			reset2 = c
		}
	}
	if shared == 1 {
		d.singleSharedMitigations++
	}
	rk.rgc1[g1] = reset1
	rk.rgc2[g2] = reset2
	rk.bitvec[g1] = 0
	return buf
}

func (d *refDapperH) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < d.nextRst {
		return buf
	}
	d.nextRst += resetWindow
	d.epoch++
	for r := range d.ranks {
		rk := &d.ranks[r]
		for i := range rk.rgc1 {
			rk.rgc1[i] = 0
			rk.rgc2[i] = 0
			rk.bitvec[i] = 0
		}
		base := d.cfg.Seed ^ d.epoch*0x9E3779B97F4A7C15 ^ uint64(d.channel)<<32 ^ uint64(r)<<16
		rk.cipher1.Rekey(base)
		rk.cipher2.Rekey(base ^ 0xD0E5C0DE)
	}
	return buf
}

func (d *refDapperH) TableOccupancy() rh.TableOccupancy {
	occ := rh.TableOccupancy{Resets: d.epoch}
	for r := range d.ranks {
		rk := &d.ranks[r]
		occ.Capacity += len(rk.rgc1) + len(rk.rgc2)
		for i := range rk.rgc1 {
			if rk.rgc1[i] != 0 {
				occ.Used++
			}
			if rk.rgc2[i] != 0 {
				occ.Used++
			}
		}
	}
	return occ
}

func (d *refDapperH) SingleSharedFraction() float64 {
	if d.stats.Mitigations == 0 {
		return 0
	}
	return float64(d.singleSharedMitigations) / float64(d.stats.Mitigations)
}

func (d *refDapperH) Counts(loc dram.Loc) (uint32, uint32) {
	rk := &d.ranks[loc.Rank]
	idx := d.cfg.Geometry.RankRowIndex(loc)
	return rk.rgc1[rk.cipher1.Encrypt(idx)>>groupShift], rk.rgc2[rk.cipher2.Encrypt(idx)>>groupShift]
}

// TestDapperHMatchesReference drives the packed tracker and the
// three-slice reference with the same seeded ACT streams (hot rows
// mixed with uniform traffic over both ranks and all 32 banks, Ticks
// before every ACT on a clock strided so that a window of steps spans
// one tREFW, across at least two rekeys) and requires identical
// actions, Stats, SingleSharedFraction, TableOccupancy, Counts and
// BitvecEntry after every call, plus identical full tables after every
// mitigation and rekey.
func TestDapperHMatchesReference(t *testing.T) {
	for _, nrh := range []uint32{8, 64, 500, 131070} {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("nrh%d/seed%d", nrh, seed), func(t *testing.T) {
				checkAgainstReference(t, nrh, seed)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, nrh uint32, seed uint64) {
	cfg := testConfig()
	cfg.NRH, cfg.Seed = nrh, seed
	cfg.Geometry.RowsPerBank = 512 // 64 groups per rank: cheap full-table checks
	// Windows long enough for the hottest row (10 of 16 ACTs) to cross
	// NM at NRH 131070 (~66K ACTs), and a little over two of them. The
	// clock advances tREFW/window per step, so each window of steps
	// ends in a rekey.
	window := 10000
	if nrh > 1000 {
		window = 128000
	}
	steps := 2*window + window/10
	stride := resetWindow / dram.Cycle(window)
	got, err := NewDapperH(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefDapperH(0, cfg)
	geo := cfg.Geometry

	rng := seed*0x9E3779B97F4A7C15 | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	randLoc := func() dram.Loc {
		v := next()
		return locFor(int(v%2), int(v>>8)%geo.BankGroups, int(v>>16)%geo.BanksPerGroup, uint32(v>>24)%geo.RowsPerBank)
	}
	hot := make([]dram.Loc, 4)
	for i := range hot {
		hot[i] = randLoc()
	}

	var gotBuf, wantBuf []rh.Action
	for i := 0; i < steps; i++ {
		now := dram.Cycle(i) * stride
		// Tick a cycle before the step's clock and at it, so a rekey
		// that fires a cycle early or late shows.
		for _, at := range []dram.Cycle{now - 1, now} {
			epoch := got.epoch
			gotBuf = got.Tick(at, gotBuf[:0])
			wantBuf = want.Tick(at, wantBuf[:0])
			if got.epoch != epoch {
				compareTables(t, got, want, i)
			}
			compareObservables(t, got, want, gotBuf, wantBuf, hot[0], i)
		}

		// Most ACTs hammer the first hot row from its one bank, so it
		// counts in both tables; the other hot rows and uniform
		// traffic land in other banks and ranks.
		var loc dram.Loc
		switch v := next() % 16; {
		case v < 10:
			loc = hot[0]
		case v < 13:
			loc = hot[1+v%3]
		default:
			loc = randLoc()
		}
		mitigations := got.Stats().Mitigations
		gotBuf = got.OnActivate(now, loc, gotBuf[:0])
		wantBuf = want.OnActivate(now, loc, wantBuf[:0])
		compareObservables(t, got, want, gotBuf, wantBuf, loc, i)
		if got.Stats().Mitigations != mitigations {
			compareTables(t, got, want, i)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	s := got.Stats()
	if s.Mitigations == 0 || got.epoch < 2 {
		t.Fatalf("stream too weak: %d mitigations, %d rekeys", s.Mitigations, got.epoch)
	}
	t.Logf("%d ACTs, %d mitigations, %d rekeys", s.Activations, s.Mitigations, got.epoch)
}

// compareObservables checks every public observable after call i; loc
// is the row whose Counts and bit-vector entries are compared.
func compareObservables(t *testing.T, got *DapperH, want *refDapperH, gotBuf, wantBuf []rh.Action, loc dram.Loc, i int) {
	t.Helper()
	if len(gotBuf) != 0 || len(wantBuf) != 0 {
		if !reflect.DeepEqual(gotBuf, wantBuf) {
			t.Errorf("call %d: actions %v, want %v", i, gotBuf, wantBuf)
		}
	}
	if g, w := got.Stats(), want.stats; g != w {
		t.Errorf("call %d: stats %+v, want %+v", i, g, w)
	}
	if g, w := got.SingleSharedFraction(), want.SingleSharedFraction(); g != w {
		t.Errorf("call %d: single-shared fraction %v, want %v", i, g, w)
	}
	if g, w := got.TableOccupancy(), want.TableOccupancy(); g != w {
		t.Errorf("call %d: occupancy %+v, want %+v", i, g, w)
	}
	g1, g2 := got.Counts(loc)
	w1, w2 := want.Counts(loc)
	if g1 != w1 || g2 != w2 {
		t.Errorf("call %d: counts of %+v = (%d, %d), want (%d, %d)", i, loc, g1, g2, w1, w2)
	}
	gg1, gg2 := got.GroupsOf(loc)
	for _, g := range []uint64{gg1, gg2} {
		if b, w := got.BitvecEntry(loc.Rank, g), want.ranks[loc.Rank].bitvec[g]; b != w {
			t.Errorf("call %d: bit-vector of group %d = %#x, want %#x", i, g, b, w)
		}
	}
}

// compareTables checks every group's counters and bit-vector.
func compareTables(t *testing.T, got *DapperH, want *refDapperH, i int) {
	t.Helper()
	for r := range got.ranks {
		for g, e := range got.ranks[r].tab {
			w := &want.ranks[r]
			if uint32(e.rgc1) != w.rgc1[g] || uint32(e.rgc2) != w.rgc2[g] || uint64(e.bitvec) != w.bitvec[g] {
				t.Errorf("call %d: rank %d group %d = {%#x %d %d}, want {%#x %d %d}",
					i, r, g, e.bitvec, e.rgc1, e.rgc2, w.bitvec[g], w.rgc1[g], w.rgc2[g])
				return
			}
		}
	}
}
