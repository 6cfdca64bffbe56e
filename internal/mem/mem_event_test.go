package mem

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// TestInjectedTrafficExcludedFromDemandStats is the regression test for
// the injected-accounting bug: a Hydra-style tracker that answers every
// activation with a counter fetch + write-back must not inflate the
// demand-side ReadsServed/WritesServed/TotalReadWait the figures
// normalize against, nor the demand RD/WR command counters the energy
// model prices separately from InjRD/InjWR.
func TestInjectedTrafficExcludedFromDemandStats(t *testing.T) {
	ft := &fakeTracker{}
	c, geo, _ := testSetup(ft)
	counterLoc := dram.Loc{Rank: 1, BankGroup: 5, Row: 900}
	ft.next = []rh.Action{
		{Kind: rh.InjectRead, Loc: counterLoc},
		{Kind: rh.InjectWrite, Loc: counterLoc},
	}
	c.Enqueue(reqAt(geo, dram.Loc{Row: 10}, false), 0)
	runUntil(c, 0, 4000)

	if c.Counters().InjRD != 1 || c.Counters().InjWR != 1 {
		t.Fatalf("injected counters = %+v, want one read and one write", c.Counters())
	}
	if c.Counters().RD != 1 {
		t.Fatalf("demand RD = %d, want 1 (injected read must not count)", c.Counters().RD)
	}
	if c.Counters().WR != 0 {
		t.Fatalf("demand WR = %d, want 0 (injected write must not count)", c.Counters().WR)
	}
	st := c.Stats()
	if st.ReadsServed != 1 || st.WritesServed != 0 {
		t.Fatalf("demand stats polluted by injected traffic: %+v", st)
	}
	// The demand read was served from a closed bank at the start of the
	// run; its wait is bounded well below the injected requests' later
	// completion times, so a polluted TotalReadWait would stick out.
	if st.TotalReadWait <= 0 || st.TotalReadWait > 500 {
		t.Fatalf("TotalReadWait = %d, want only the demand read's wait", st.TotalReadWait)
	}
}

// TestFourRankRefreshStagger verifies the stagger fix: on a 4-rank
// geometry every rank must refresh in its own tREFI/Ranks slot, so no
// two ranks are ever blocked by auto-refresh at the same time. Each
// refresh must fire at its exact deadline cycle, which the controller's
// cached earliest deadline must not delay.
func TestFourRankRefreshStagger(t *testing.T) {
	geo := dram.Baseline()
	geo.Ranks = 4
	tim := dram.DDR5()
	c := NewController(0, geo, tim, rh.NewNop(), rh.VRR1)
	for now := dram.Cycle(0); now < 3*tim.TREFI; now++ {
		c.Tick(now)
		blocked, due := 0, uint64(0)
		for rk := 0; rk < geo.Ranks; rk++ {
			fb := geo.FlatBank(dram.Loc{Rank: rk})
			if c.BankBlockedUntil(fb) > now {
				blocked++
			}
			if first := tim.TREFI + dram.Cycle(rk)*tim.TREFI/dram.Cycle(geo.Ranks); now >= first {
				due += uint64((now-first)/tim.TREFI) + 1
			}
		}
		if blocked > 1 {
			t.Fatalf("cycle %d: %d ranks blocked by refresh simultaneously", now, blocked)
		}
		if got := c.Stats().Refreshes; got != due {
			t.Fatalf("cycle %d: %d refreshes issued, %d due", now, got, due)
		}
	}
	if c.Stats().Refreshes < uint64(2*geo.Ranks) {
		t.Fatalf("only %d refreshes in 3 tREFI", c.Stats().Refreshes)
	}
}

// TestNextEventSparseDrivingMatchesDense drives one controller every
// cycle (dense) and only at NextEvent wake times plus arrivals (sparse,
// as the event engine does). Both must produce identical request
// completions, counters and stats. Two plans run: a sparse mix, and a
// saturated one whose arrivals outpace the data bus, so the queue stays
// over a third full and the wake comes from the data-bus floor.
func TestNextEventSparseDrivingMatchesDense(t *testing.T) {
	type arrival struct {
		at  dram.Cycle
		loc dram.Loc
		wr  bool
		vrr bool // the tracker answers the request's ACT with a victim refresh
	}
	// A mix that exercises refresh windows, row hits, misses, bank
	// conflicts and tracker actions.
	var mix []arrival
	for i := 0; i < 60; i++ {
		mix = append(mix, arrival{
			at:  dram.Cycle(i) * 397,
			loc: dram.Loc{Rank: i % 2, BankGroup: i % 8, Bank: i % 4, Row: uint32(i % 7), Col: i % 32},
			wr:  i%5 == 0,
			vrr: i%9 == 0,
		})
	}
	// One arrival every 4 cycles against a 10-cycle burst, each on the
	// next of the 64 banks and on a row that bank has not seen: the
	// streaming pattern. The queue fills, and later arrivals wait for a
	// free slot.
	var saturated []arrival
	for i := 0; i < 3000; i++ {
		saturated = append(saturated, arrival{
			at:  dram.Cycle(i) * 4,
			loc: dram.Loc{Rank: i % 2, BankGroup: i / 2 % 8, Bank: i / 16 % 4, Row: uint32(i / 64), Col: i % 32},
			wr:  i%7 == 0,
			vrr: i%100 == 0,
		})
	}

	type outcome struct {
		done  []dram.Cycle
		ctr   dram.Counters
		stats Stats
		// Sparse runs only: wakes answered by the data-bus floor, and
		// attempts that started nothing.
		floorWakes, failed int
	}
	run := func(plan []arrival, sparse bool) outcome {
		ft := &fakeTracker{}
		c, geo, _ := testSetup(ft)
		reqs := make([]*Request, len(plan))
		for i, a := range plan {
			reqs[i] = reqAt(geo, a.loc, a.wr)
		}
		var o outcome
		next := 0
		wake := dram.Cycle(0)
		horizon := plan[len(plan)-1].at + dram.US(10)
		for now := dram.Cycle(0); now < horizon; now++ {
			// Like the event engine, the sparse driver Ticks only at the
			// wake and enqueues whenever an arrival is due. An arrival
			// waits for a free slot; slots free only in Tick, so a
			// sparse driver need not wake for a waiting one.
			due := next < len(plan) && plan[next].at <= now && c.CanEnqueue()
			if !sparse || now >= wake {
				c.Tick(now)
				if c.nextConsider == now+2 { // only a failed attempt at now sets this
					o.failed++
				}
			} else if !due {
				// Nothing ran since the last Tick/Enqueue: the cached
				// wake must stand.
				if got := c.NextEvent(now); got != wake {
					t.Fatalf("cycle %d: NextEvent = %d, want the cached wake %d", now, got, wake)
				}
				continue
			}
			for next < len(plan) && plan[next].at <= now && c.CanEnqueue() {
				if a := plan[next]; a.vrr {
					ft.next = []rh.Action{{Kind: rh.RefreshVictims, Loc: a.loc, Row: a.loc.Row}}
				}
				c.Enqueue(reqs[next], now)
				next++
			}
			if c.atBusFloor() {
				o.floorWakes++
			}
			if wake = c.NextEvent(now); wake <= now {
				t.Fatalf("NextEvent(%d) = %d, not after now", now, wake)
			}
		}
		o.done = make([]dram.Cycle, len(reqs))
		for i, r := range reqs {
			if !r.Done {
				t.Fatalf("request %d incomplete (sparse=%v)", i, sparse)
			}
			o.done[i] = r.DoneAt
		}
		o.ctr, o.stats = c.Counters(), c.Stats()
		return o
	}

	for _, tc := range []struct {
		name string
		plan []arrival
	}{{"mix", mix}, {"saturated", saturated}} {
		t.Run(tc.name, func(t *testing.T) {
			d, s := run(tc.plan, false), run(tc.plan, true)
			for i := range d.done {
				if d.done[i] != s.done[i] {
					t.Fatalf("request %d: dense DoneAt %d, sparse %d", i, d.done[i], s.done[i])
				}
			}
			if d.ctr != s.ctr {
				t.Fatalf("counters diverge:\n dense: %+v\n sparse: %+v", d.ctr, s.ctr)
			}
			if d.stats != s.stats {
				t.Fatalf("stats diverge:\n dense: %+v\n sparse: %+v", d.stats, s.stats)
			}
			served := len(tc.plan)
			t.Logf("%d served, sparse driver: %d floor wakes, %d failed attempts", served, s.floorWakes, s.failed)
			if tc.name != "saturated" {
				return
			}
			// The floor must answer most wakes of a saturated controller,
			// and the early wakes it adds must stay a small share. Each
			// failed attempt is one early wake: the floor assumes a row
			// conflict's latency and ignores banks and ranks, so it comes
			// early when the next request to start opens a closed bank
			// (tRP later) or waits on its bank, its rank or a refresh. On
			// this plan that is ~15% of the floor's wakes.
			if s.floorWakes < served/2 {
				t.Errorf("floor answered %d wakes for %d served requests; want at least half", s.floorWakes, served)
			}
			if s.failed > served/5 {
				t.Errorf("%d failed attempts for %d served requests; want at most a fifth", s.failed, served)
			}
		})
	}
}

// TestNextEventRespectsThrottler checks the throttled-request wake bound:
// the controller must predict the un-throttle time rather than polling,
// and service the request at the same cycle a dense driver would.
func TestNextEventRespectsThrottler(t *testing.T) {
	run := func(sparse bool) dram.Cycle {
		tt := &throttlingTracker{row: 10, until: 5000}
		c, geo, _ := testSetup(tt)
		r := reqAt(geo, dram.Loc{Row: 10}, false)
		c.Enqueue(r, 0)
		wake := dram.Cycle(0)
		for now := dram.Cycle(0); now < 8000; now++ {
			if sparse && now < wake {
				continue
			}
			c.Tick(now)
			wake = c.NextEvent(now)
		}
		if !r.Done {
			t.Fatalf("throttled request never served (sparse=%v)", sparse)
		}
		return r.DoneAt
	}
	dense := run(false)
	sparseDone := run(true)
	if dense != sparseDone {
		t.Fatalf("throttled completion diverges: dense %d, sparse %d", dense, sparseDone)
	}
	if dense < 5000 {
		t.Fatalf("throttled request served at %d, before the throttle lifted", dense)
	}
}
