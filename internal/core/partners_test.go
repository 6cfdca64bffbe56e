package core

import (
	"reflect"
	"sync"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/llbc"
	"dapper/internal/rh"
)

// memoConfig is a small geometry (64 groups per rank) at NRH 8, so a
// stream mitigates often and over many groups.
func memoConfig(seed uint64) Config {
	cfg := testConfig()
	cfg.NRH, cfg.Seed = 8, seed
	cfg.Geometry.RowsPerBank = 512
	return cfg
}

// memoStream returns a seeded ACT stream: three of four ACTs hammer one
// of 32 hot rows drawn from hotSeed, the rest are uniform over both
// ranks and all banks. Streams with equal hotSeed hammer the same rows
// in an order drawn from pickSeed.
func memoStream(geo dram.Geometry, hotSeed, pickSeed uint64) func() dram.Loc {
	xorshift := func(s *uint64) uint64 {
		*s ^= *s << 13
		*s ^= *s >> 7
		*s ^= *s << 17
		return *s
	}
	rng := hotSeed*0x9E3779B97F4A7C15 | 1
	randLoc := func() dram.Loc {
		v := xorshift(&rng)
		return locFor(int(v%2), int(v>>8)%geo.BankGroups, int(v>>16)%geo.BanksPerGroup, uint32(v>>24)%geo.RowsPerBank)
	}
	hot := make([]dram.Loc, 32)
	for i := range hot {
		hot[i] = randLoc()
	}
	rng = pickSeed*0xBF58476D1CE4E5B9 | 1
	return func() dram.Loc {
		if v := xorshift(&rng); v%4 != 0 {
			return hot[v>>2%uint64(len(hot))]
		}
		return randLoc()
	}
}

// TestPartnerMemo checks get against the direct walk for ciphers that
// share the from keys, the to keys or the keys at another width, in an
// order that keeps a 4-entry memo evicting, and that the memo then
// holds exactly the 4 entries filled last.
func TestPartnerMemo(t *testing.T) {
	c9a, c9b, c9c := llbc.MustNew(9, 1), llbc.MustNew(9, 2), llbc.MustNew(9, 3)
	c10a, c10b := llbc.MustNew(10, 1), llbc.MustNew(10, 2)
	type call struct {
		from, to *llbc.Cipher
		g        uint64
	}
	var calls []call
	for g := range uint64(2) {
		calls = append(calls, call{c9a, c9b, g}, call{c9a, c9c, g}, call{c9b, c9a, g}, call{c10a, c10b, g})
	}
	memo := &partnerMemo{limit: 4}
	for round := range 2 {
		for _, c := range calls {
			p := partnersOf(memo, c.from, c.to, c.g)
			for i, got := range p {
				want := c.to.Encrypt(c.from.Decrypt(c.g<<groupShift+uint64(i))) >> groupShift
				if uint64(got) != want {
					t.Fatalf("round %d: %d-bit group %d member %d: partner group %d, want %d", round, c.from.Bits(), c.g, i, got, want)
				}
			}
		}
	}
	if len(memo.entries) != memo.limit {
		t.Fatalf("memo holds %d entries, want %d", len(memo.entries), memo.limit)
	}
	for _, c := range calls[len(calls)-memo.limit:] {
		k := partnerKey{c.from.Keys(), c.to.Keys(), uint32(c.from.Bits()), uint32(c.g)}
		if memo.entries[k] == nil {
			t.Errorf("memo lost the recent entry %d-bit group %d", c.from.Bits(), c.g)
		}
	}
}

// TestDapperHSharedMemoMatchesReference holds trackers that share one
// partner-group memo to the reference, which walks both groups with
// the ciphers on every mitigation. Two trackers have the same seed, so
// they share keys and memo entries; a third has another seed, and a
// fourth the first seed on twice the rows, so the same keys over a
// wider cipher. Their ACTs interleave across at least two rekeys, and
// the memo holds 16 entries, far fewer than the (keys, group) pairs the
// streams mitigate, so entries are evicted and refilled throughout.
// After every call each tracker's observables must equal its
// reference's, and its full tables after every mitigation and rekey.
func TestDapperHSharedMemoMatchesReference(t *testing.T) {
	memo := &partnerMemo{limit: 16}
	type run struct {
		got  *DapperH
		want *refDapperH
		next func() dram.Loc
	}
	var runs []run
	for i, tc := range []struct {
		seed uint64
		rows uint32
	}{{1, 512}, {1, 512}, {2, 512}, {1, 1024}} {
		cfg := memoConfig(tc.seed)
		cfg.Geometry.RowsPerBank = tc.rows
		got, err := NewDapperH(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.memo = memo
		runs = append(runs, run{got, newRefDapperH(0, cfg), memoStream(cfg.Geometry, tc.seed, uint64(i))})
	}

	const window = 4000 // steps per tREFW, so each window of steps ends in a rekey
	stride := resetWindow / window
	keys := map[partnerKey]bool{} // the (keys, group) pairs mitigations read
	var gotBuf, wantBuf []rh.Action
	for i := 0; i < 2*window+window/10; i++ {
		now := dram.Cycle(i) * stride
		for j, r := range runs {
			epoch := r.got.epoch
			gotBuf = r.got.Tick(now, gotBuf[:0])
			wantBuf = r.want.Tick(now, wantBuf[:0])
			if r.got.epoch != epoch {
				compareTables(t, r.got, r.want, i)
			}
			loc := r.next()
			mitigations := r.got.Stats().Mitigations
			gotBuf = r.got.OnActivate(now, loc, gotBuf[:0])
			wantBuf = r.want.OnActivate(now, loc, wantBuf[:0])
			compareObservables(t, r.got, r.want, gotBuf, wantBuf, loc, i)
			if r.got.Stats().Mitigations != mitigations {
				compareTables(t, r.got, r.want, i)
				rk := &r.got.ranks[loc.Rank]
				g1, g2 := r.got.GroupsOf(loc)
				bits := uint32(r.got.cfg.AddressBits())
				keys[partnerKey{rk.cipher1.Keys(), rk.cipher2.Keys(), bits, uint32(g1)}] = true
				keys[partnerKey{rk.cipher2.Keys(), rk.cipher1.Keys(), bits, uint32(g2)}] = true
			}
			if t.Failed() {
				t.Fatalf("tracker %d (seed %d, %d rows per bank) diverged at step %d", j, r.got.cfg.Seed, r.got.cfg.Geometry.RowsPerBank, i)
			}
		}
	}
	for j, r := range runs {
		if s := r.got.Stats(); s.Mitigations == 0 || r.got.epoch < 2 {
			t.Fatalf("tracker %d: stream too weak: %d mitigations, %d rekeys", j, s.Mitigations, r.got.epoch)
		}
	}
	if n := len(memo.entries); n > memo.limit {
		t.Fatalf("memo holds %d entries, bound %d", n, memo.limit)
	}
	if len(keys) < 4*memo.limit {
		t.Fatalf("mitigations read %d (keys, group) pairs, want at least %d to cycle the %d-entry memo", len(keys), 4*memo.limit, memo.limit)
	}
	t.Logf("%d (keys, group) pairs through a %d-entry memo", len(keys), memo.limit)
}

// TestDapperHSharedMemoConcurrent runs four mitigating trackers with the
// same keys and stream on their own goroutines through one small memo,
// so they miss, fill and evict the same entries at once, and holds
// each one's actions and Stats to a serial run's. Under the race
// detector (make test-race) this is the memo's concurrency check.
func TestDapperHSharedMemoConcurrent(t *testing.T) {
	cfg := memoConfig(3)
	const window = 2000
	run := func(d *DapperH) ([]rh.Action, rh.Stats) {
		next := memoStream(cfg.Geometry, 3, 0)
		var log, buf []rh.Action
		for i := 0; i < 2*window+window/10; i++ {
			now := dram.Cycle(i) * (resetWindow / window)
			buf = d.Tick(now, buf[:0])
			buf = d.OnActivate(now, next(), buf)
			log = append(log, buf...)
		}
		return log, d.Stats()
	}
	newTracker := func(memo *partnerMemo) *DapperH {
		d, err := NewDapperH(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.memo = memo
		return d
	}
	wantLog, wantStats := run(newTracker(&partnerMemo{limit: 1 << 10}))
	if wantStats.Mitigations == 0 {
		t.Fatal("serial run never mitigated")
	}

	memo := &partnerMemo{limit: 16}
	trackers := make([]*DapperH, 4)
	for g := range trackers {
		trackers[g] = newTracker(memo)
	}
	logs := make([][]rh.Action, len(trackers))
	stats := make([]rh.Stats, len(trackers))
	var wg sync.WaitGroup
	for g, d := range trackers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[g], stats[g] = run(d)
		}()
	}
	wg.Wait()
	for g := range trackers {
		if stats[g] != wantStats {
			t.Errorf("goroutine %d: stats %+v, want %+v", g, stats[g], wantStats)
		}
		if !reflect.DeepEqual(logs[g], wantLog) {
			t.Errorf("goroutine %d: %d actions differ from the serial run's %d", g, len(logs[g]), len(wantLog))
		}
	}
	t.Logf("%d mitigations, %d actions per tracker", wantStats.Mitigations, len(wantLog))
}

// TestGroupTableOf checks that ciphers with equal keys and width share
// one group table, that other keys or another width get their own, and
// that the memo holds at most limit tables, evicting the oldest.
func TestGroupTableOf(t *testing.T) {
	memo := &groupMemo{limit: 2}
	a := groupTableOf(memo, llbc.MustNew(12, 1), llbc.MustNew(12, 2))
	if b := groupTableOf(memo, llbc.MustNew(12, 1), llbc.MustNew(12, 2)); b != a {
		t.Fatal("ciphers with equal keys and width got different tables")
	}
	for _, c := range []struct {
		name         string
		bits         int
		seed1, seed2 uint64
	}{{"other table-2 keys", 12, 1, 3}, {"swapped keys", 12, 2, 1}, {"other width", 13, 1, 2}} {
		if b := groupTableOf(memo, llbc.MustNew(c.bits, c.seed1), llbc.MustNew(c.bits, c.seed2)); b == a {
			t.Errorf("%s: shares the first table", c.name)
		}
	}
	if n := len(memo.entries); n != memo.limit {
		t.Fatalf("memo holds %d tables, want %d", n, memo.limit)
	}
	if b := groupTableOf(memo, llbc.MustNew(12, 1), llbc.MustNew(12, 2)); b == a {
		t.Fatal("the oldest table was not evicted")
	}
}

// FuzzGroupMemo holds every group-table read to the ciphers:
// groups(idx) must equal (c1.Encrypt(idx) >> 8, c2.Encrypt(idx) >> 8)
// under the ciphers' current keys, on a miss and on the hit after it,
// and the row's slot must then hold the row.
// The inputs are two key seeds, a width ValidateH admits (8 to 24 bits)
// and a row-index sequence, 3 bytes an index. An index whose first byte
// is odd is moved onto the previous index's slot when the domain has
// another row there, so slots are overwritten back and forth; the
// ciphers rekey at the step rekeyAt names, and the table is looked up
// again through a one-table memo, which evicts the old keys' table.
func FuzzGroupMemo(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(13), []byte{0, 0, 0, 1, 0, 0, 3, 9, 9, 5, 1, 2, 7, 7, 7}, uint8(2))
	f.Add(uint64(0xDA99E4), uint64(0xDA99E4^0xD0E5C0DE), uint8(21), []byte{2, 1, 0, 1, 1, 1, 3, 3, 3, 1, 0, 0, 0, 255, 255}, uint8(3))
	f.Add(uint64(7), uint64(7), uint8(8), []byte{255, 255, 255, 1, 2, 3}, uint8(0))
	f.Add(uint64(5), uint64(6), uint8(24), []byte{255, 255, 255, 1, 0, 0, 3, 0, 0, 254, 255, 255}, uint8(255))
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64, width uint8, rows []byte, rekeyAt uint8) {
		bits := 8 + int(width%17)
		domain := uint64(1) << bits
		c1, c2 := llbc.MustNew(bits, seed1), llbc.MustNew(bits, seed2)
		memo := &groupMemo{limit: 1}
		tab := groupTableOf(memo, c1, c2)
		var prev uint64
		for step := 0; 3*step+3 <= len(rows); step++ {
			if step == int(rekeyAt) {
				c1.Rekey(seed1 ^ 0x9E3779B97F4A7C15)
				c2.Rekey(seed2 ^ 0x9E3779B97F4A7C15)
				tab = groupTableOf(memo, c1, c2)
			}
			b := rows[3*step:]
			idx := (uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16) % domain
			if b[0]&1 == 1 {
				// The next row after idx, cyclically, that shares prev's
				// slot, if the domain has one besides prev.
				for i := range min(domain, 1<<20) {
					if c := (idx + i) % domain; c != prev && groupSlot(c) == groupSlot(prev) {
						idx = c
						break
					}
				}
			}
			want1, want2 := c1.Encrypt(idx)>>groupShift, c2.Encrypt(idx)>>groupShift
			for read := range 2 {
				if g1, g2 := tab.groups(c1, c2, idx); g1 != want1 || g2 != want2 {
					t.Fatalf("step %d read %d: %d-bit row %d: groups (%d, %d), want (%d, %d)", step, read, bits, idx, g1, g2, want1, want2)
				}
			}
			if v := tab[groupSlot(idx)].Load(); v>>32 != groupSlotValid|idx {
				t.Fatalf("step %d: %d-bit row %d: its slot holds %#x, not the row", step, bits, idx, v)
			}
			prev = idx
		}
		if n := len(memo.entries); n > memo.limit {
			t.Fatalf("memo holds %d tables, bound %d", n, memo.limit)
		}
	})
}

// TestDapperHSharedGroupsConcurrent feeds two trackers with the same
// keys the same mitigating stream on two goroutines, so both read and
// overwrite the same group-table slots at once across two rekeys, and
// requires equal Stats, equal to a tracker's built after them and fed
// the stream alone. Under the race detector (make test-race) this is
// the group memo's concurrency check.
func TestDapperHSharedGroupsConcurrent(t *testing.T) {
	cfg := memoConfig(5)
	const window = 4000
	run := func() rh.Stats {
		d, err := NewDapperH(0, cfg)
		if err != nil {
			t.Error(err)
			return rh.Stats{}
		}
		next := memoStream(cfg.Geometry, 5, 1)
		var buf []rh.Action
		for i := 0; i < 2*window+window/10; i++ {
			now := dram.Cycle(i) * (resetWindow / window)
			buf = d.Tick(now, buf[:0])
			buf = d.OnActivate(now, next(), buf[:0])
		}
		return d.Stats()
	}
	var stats [2]rh.Stats
	var wg sync.WaitGroup
	for g := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[g] = run()
		}()
	}
	wg.Wait()
	want := run()
	if want.Mitigations == 0 {
		t.Fatal("stream never mitigated")
	}
	for g, s := range stats {
		if s != want {
			t.Errorf("goroutine %d: stats %+v, want %+v", g, s, want)
		}
	}
}
