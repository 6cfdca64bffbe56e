package mem

import (
	"math/rand"
	"slices"
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

// refEarliestReady is earliestReady without the floor exit: a full scan
// of q, kept as the oracle the early-exit version must match.
func refEarliestReady(c *Controller, q []*Request, now dram.Cycle) dram.Cycle {
	best := dram.Never
	for _, r := range q {
		bank := &c.banks[r.bank]
		rank := &c.ranks[r.Loc.Rank]
		t := now + 1
		t = max(t, bank.ReadyAt)
		t = max(t, bank.BlockedUntil)
		t = max(t, rank.BlockedUntil)
		lat := c.hitLat
		if bank.OpenRow != r.Loc.Row {
			var actDelay dram.Cycle
			lat = c.closedLat
			if bank.OpenRow != dram.RowNone {
				actDelay = c.tim.TRP
				lat = c.missLat
			}
			t = max(t, bank.LastActAt+c.actSpacing-actDelay)
			t = max(t, rank.LastActAt+c.tim.TRRDS-actDelay)
			if c.throt != nil && !r.Injected {
				t = max(t, c.throt.NextAllowed(t, r.Loc))
			}
		}
		t = max(t, c.dataBusFreeAt-lat)
		if t < best {
			best = t
		}
	}
	return best
}

// refPick is pick without the blocked-hits exit: a full FR-FCFS scan of
// q, kept as the oracle the early-exit version must match.
func refPick(c *Controller, q []*Request, now dram.Cycle) *Request {
	var oldest *Request
	for _, r := range q {
		bank := &c.banks[r.bank]
		if bank.AvailableAt(now) > now {
			continue
		}
		rank := &c.ranks[r.Loc.Rank]
		if rank.BlockedUntil > now {
			continue
		}
		hit := bank.OpenRow == r.Loc.Row
		if !hit {
			actAt := now
			if bank.OpenRow != dram.RowNone {
				actAt = now + c.tim.TRP
			}
			if bank.LastActAt+c.actSpacing > actAt {
				continue
			}
			if rank.LastActAt+c.tim.TRRDS > actAt {
				continue
			}
			if c.throt != nil && !r.Injected {
				if c.throt.NextAllowed(now, r.Loc) > now {
					continue
				}
			}
		}
		if hit {
			if c.dataBusOK(now, c.hitLat) {
				return r
			}
			continue
		}
		if oldest == nil {
			lat := c.closedLat
			if bank.OpenRow != dram.RowNone {
				lat = c.missLat
			}
			if c.dataBusOK(now, lat) {
				oldest = r
			}
		}
	}
	return oldest
}

// TestEarliestReadyMatchesPick pins the contract the event engine rests
// on: over a frozen controller state, earliestReady(q, now) is exactly
// the first cycle after now at which pick(q, t) starts some request.
// States are randomized over open, closed and conflicting banks, blocked
// banks and ranks, tRC/tRRD spacing (with and without a PRAC tax), a busy
// data bus, a throttling tracker, and demand plus injected requests.
// At every probed cycle both scans must also agree with their full-scan
// references, and both early exits must fire often enough to matter.
func TestEarliestReadyMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const now = dram.Cycle(100_000)
	// around returns a cycle in [now-before, now+after].
	around := func(before, after int) dram.Cycle {
		return now - dram.Cycle(before) + dram.Cycle(rng.Intn(before+after+1))
	}
	waited := 0
	floorExits, hitExits := 0, 0
	// check asserts both scans match their references at (q, at) and
	// returns pick's choice.
	check := func(trial, qi int, c *Controller, q []*Request, at dram.Cycle) *Request {
		if got, want := c.earliestReady(q, at), refEarliestReady(c, q, at); got != want {
			t.Fatalf("trial %d queue %d: earliestReady(%d) = %d, full scan %d", trial, qi, at, got, want)
		}
		r := c.pick(q, at)
		if want := refPick(c, q, at); r != want {
			t.Fatalf("trial %d queue %d: pick(%d) = %p, full scan %p", trial, qi, at, r, want)
		}
		return r
	}
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
			// The floor exit skips part of the queue when the full scan
			// of all but the last request already reaches the floor.
			if floor := max(now+1, c.dataBusFreeAt-c.missLat); refEarliestReady(c, q[:len(q)-1], now) <= floor {
				floorExits++
			}
			check(trial, qi, c, q, now)
			for at := now + 1; at < want; at++ {
				if r := check(trial, qi, c, q, at); r != nil {
					t.Fatalf("trial %d queue %d: pick starts %+v at %d, before earliestReady %d",
						trial, qi, r.Loc, at, want)
				}
			}
			r := check(trial, qi, c, q, want)
			if r == nil {
				t.Fatalf("trial %d queue %d: pick starts nothing at earliestReady %d", trial, qi, want)
			}
			// The blocked-hits exit returns before a queued row hit.
			if !c.dataBusOK(want, c.hitLat) && rowHitAfter(c, q, r) {
				hitExits++
			}
			if want > now+1 {
				waited++
			}
		}
	}
	// Most states must make the scheduler wait, and both early exits must
	// fire, or the comparisons above prove little.
	if waited < 300 {
		t.Fatalf("only %d queues had to wait; the generator is too lenient", waited)
	}
	if floorExits < 20 || hitExits < 20 {
		t.Fatalf("early exits taken: floor %d, blocked hits %d; want at least 20 each", floorExits, hitExits)
	}
}

// rowHitAfter reports whether some request queued behind r in q hits its
// bank's open row.
func rowHitAfter(c *Controller, q []*Request, r *Request) bool {
	for i := slices.Index(q, r) + 1; i < len(q); i++ {
		if c.banks[q[i].bank].OpenRow == q[i].Loc.Row {
			return true
		}
	}
	return false
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

// countSink counts events without keeping them.
type countSink struct{ n int }

func (s *countSink) Event(rh.Event) { s.n++ }

// TestHotPathsDoNotAllocate holds the per-event and per-wake paths to
// zero allocations: emit with a sink attached, and pick and
// earliestReady scanning a full queue in which nothing can start (the
// bank served first is busy, and tRRD holds every other ACT).
func TestHotPathsDoNotAllocate(t *testing.T) {
	geo := dram.Baseline()
	c := NewController(0, geo, dram.DDR5(), rh.NewNop(), rh.VRR1)
	sink := &countSink{}
	c.SetSink(sink)
	for i := range QueueCap {
		c.Enqueue(reqAt(geo, bankLoc(geo, i%geo.BanksPerChannel(), uint32(i)), false), 0)
	}
	c.Tick(1)
	if c.pick(c.queue, 2) != nil || c.Stats().ReadsServed+c.Stats().WritesServed != 1 {
		t.Fatal("setup: want one request in service and none startable at cycle 2")
	}
	for _, hot := range []struct {
		name string
		f    func()
	}{
		{"emit", func() { c.emit(rh.Event{Kind: rh.EvACT, At: 2}) }},
		{"pick", func() { c.pick(c.queue, 2) }},
		{"earliestReady", func() { c.earliestReady(c.queue, 2) }},
	} {
		if n := testing.AllocsPerRun(100, hot.f); n != 0 {
			t.Errorf("%s allocates %v times per call", hot.name, n)
		}
	}
	if sink.n == 0 {
		t.Error("emit never reached the sink")
	}
}
