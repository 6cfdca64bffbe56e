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
			p := memo.get(c.from, c.to, c.g)
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
