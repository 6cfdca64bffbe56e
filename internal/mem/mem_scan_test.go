package mem

import (
	"math/rand"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// bankLoc returns the location of row on flat bank fb of channel 0.
func bankLoc(geo dram.Geometry, fb int, row uint32) dram.Loc {
	perRank := geo.BanksPerRank()
	return dram.Loc{
		Rank:      fb / perRank,
		BankGroup: fb % perRank / geo.BanksPerGroup,
		Bank:      fb % geo.BanksPerGroup,
		Row:       row,
	}
}

// TestEarliestReadyMatchesPick pins the contract the event engine rests
// on: over a frozen controller state, earliestReady(q, now) is exactly
// the first cycle after now at which pick(q, t) starts some request.
// States are randomized over open, closed and conflicting banks, blocked
// banks and ranks, tRC/tRRD spacing (with and without a PRAC tax), a busy
// data bus, a throttling tracker, and demand plus injected requests.
func TestEarliestReadyMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const now = dram.Cycle(100_000)
	// around returns a cycle in [now-before, now+after].
	around := func(before, after int) dram.Cycle {
		return now - dram.Cycle(before) + dram.Cycle(rng.Intn(before+after+1))
	}
	waited := 0
	for trial := 0; trial < 400; trial++ {
		geo := dram.Baseline()
		tim := dram.DDR5()
		if trial%3 == 0 {
			tim.PRACActTax = dram.NS(float64(rng.Intn(40)))
		}
		var tr rh.Tracker = &fakeTracker{}
		if trial%2 == 0 {
			tr = &throttlingTracker{row: uint32(rng.Intn(4)), until: around(100, 1200)}
		}
		c := NewController(0, geo, tim, tr, rh.VRR1)

		// A handful of banks across both ranks, so requests collide on
		// banks and rows.
		var flat []int
		for i := 0; i < 1+rng.Intn(6); i++ {
			flat = append(flat, rng.Intn(geo.BanksPerChannel()))
		}
		for _, fb := range flat {
			b := &c.banks[fb]
			if rng.Intn(3) > 0 {
				b.OpenRow = uint32(rng.Intn(4))
			}
			b.ReadyAt = around(200, 400)
			b.LastActAt = around(400, 100)
			if rng.Intn(4) == 0 {
				b.BlockedUntil = around(100, 800)
			}
		}
		for r := range c.ranks {
			rk := &c.ranks[r]
			rk.LastActAt = around(100, 60)
			if rng.Intn(5) == 0 {
				rk.BlockedUntil = around(100, 1200)
			}
		}
		c.dataBusFreeAt = around(50, 300)

		for i := 0; i < 1+rng.Intn(20); i++ {
			loc := bankLoc(geo, flat[rng.Intn(len(flat))], uint32(rng.Intn(4)))
			loc.Col = rng.Intn(geo.BlocksPerRow())
			r := reqAt(geo, loc, rng.Intn(4) == 0)
			r.Injected = rng.Intn(4) == 0
			c.Enqueue(r, around(500, 0))
		}

		for qi, q := range [][]*Request{c.queue, c.injected} {
			want := c.earliestReady(q, now)
			if len(q) == 0 {
				if want != dram.Never {
					t.Fatalf("trial %d queue %d: empty queue ready at %d, want Never", trial, qi, want)
				}
				continue
			}
			if want <= now || want > now+4000 {
				t.Fatalf("trial %d queue %d: earliestReady %d outside (now, now+4000]", trial, qi, want)
			}
			for at := now + 1; at < want; at++ {
				if r := c.pick(q, at); r != nil {
					t.Fatalf("trial %d queue %d: pick starts %+v at %d, before earliestReady %d",
						trial, qi, r.Loc, at, want)
				}
			}
			if c.pick(q, want) == nil {
				t.Fatalf("trial %d queue %d: pick starts nothing at earliestReady %d", trial, qi, want)
			}
			if want > now+1 {
				waited++
			}
		}
	}
	// Most states must make the scheduler wait, or the comparison above
	// proves little.
	if waited < 300 {
		t.Fatalf("only %d queues had to wait; the generator is too lenient", waited)
	}
}

// BenchmarkControllerSaturated drives one controller the way the event
// engine does — Tick at each wake, then NextEvent — with its 48-entry
// queue kept full of row misses spread over every bank: the regime a
// performance attack holds the memory controller in. One op is one
// served request.
func BenchmarkControllerSaturated(b *testing.B) {
	geo := dram.Baseline()
	c := NewController(0, geo, dram.DDR5(), rh.NewNop(), rh.VRR1)
	nBanks := geo.BanksPerChannel()
	seq := 0
	// next returns a location on the next bank in turn, on a row that bank
	// has not seen yet, so every request misses the row buffer.
	next := func() dram.Loc {
		loc := bankLoc(geo, seq%nBanks, uint32(seq/nBanks)%geo.RowsPerBank)
		seq++
		return loc
	}
	reqs := make([]*Request, QueueCap)
	for i := range reqs {
		reqs[i] = reqAt(geo, next(), false)
		c.Enqueue(reqs[i], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := dram.Cycle(0)
	for c.Stats().ReadsServed < uint64(b.N) {
		c.Tick(now)
		for _, r := range reqs {
			if r.Done {
				*r = Request{Loc: next()}
				r.Addr = geo.Compose(r.Loc)
				c.Enqueue(r, now)
			}
		}
		now = c.NextEvent(now)
	}
}
