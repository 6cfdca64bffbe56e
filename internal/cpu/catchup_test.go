package cpu

import (
	"math/rand/v2"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/mem"
	"dapper/internal/telemetry"
)

// mixTrace is a seeded record stream mixing short and long bubble runs
// with four kinds of memory operation, told apart by mixMemory through
// the address: LLC hits (line%4 == 0), in-flight reads (line%4 == 1),
// posted writes, and non-cacheable writes the memory keeps in flight.
type mixTrace struct{ rng *rand.Rand }

func newMixTrace(seed uint64) *mixTrace { return &mixTrace{rand.New(rand.NewPCG(seed, 7))} }

func (t *mixTrace) Next() Record {
	var r Record
	switch t.rng.IntN(4) {
	case 0:
		r.Bubbles = t.rng.IntN(8)
	case 1:
		r.Bubbles = 20 + t.rng.IntN(400)
	default:
		r.Bubbles = 8 + t.rng.IntN(40)
	}
	line := uint64(t.rng.IntN(1<<20)) &^ 3
	switch t.rng.IntN(10) {
	case 0, 1, 2, 3:
		r.Addr = line * 64 // LLC hit
	case 4, 5, 6:
		r.Addr = (line + 1) * 64 // in-flight read
	case 7, 8:
		r.Addr, r.IsWrite = line*64, true
	default:
		r.Addr, r.IsWrite, r.NonCacheable = (line+1)*64, true, true
	}
	return r
}

// mixMemory answers LLC hits after hitLat and keeps reads to odd lines
// (and non-cacheable writes) in flight: like the memory controller, it
// gives such a request its completion time missLat after issue only
// when tick reaches the request's service time, halfway there, so a
// core waiting on one sees dram.Never until then. Accesses issued in
// [busyFrom, busyTo) of every busyPeriod cycles are refused.
type mixMemory struct {
	hitLat, missLat          dram.Cycle
	busyFrom, busyTo, period dram.Cycle
	inflight                 []*mem.Request
	issued                   []dram.Cycle
}

func (m *mixMemory) busy(now dram.Cycle) bool {
	at := now % m.period
	return at >= m.busyFrom && at < m.busyTo
}

func (m *mixMemory) Access(now dram.Cycle, _ int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
	if m.busy(now) {
		return 0, nil, false
	}
	if line := StripNC(req.Addr) / 64; line%2 == 0 {
		return m.hitLat, nil, true
	}
	req.Done = false
	m.inflight = append(m.inflight, req)
	m.issued = append(m.issued, now)
	return 0, req, true
}

// tick services every request whose service time has come.
func (m *mixMemory) tick(now dram.Cycle) {
	kept, keptAt := m.inflight[:0], m.issued[:0]
	for i, r := range m.inflight {
		if at := m.issued[i]; now >= at+m.missLat/2 {
			r.Done, r.DoneAt = true, at+m.missLat
			continue
		}
		kept, keptAt = append(kept, r), append(keptAt, m.issued[i])
	}
	m.inflight, m.issued = kept, keptAt
}

// nextEvent is the memory's next state change after now: a service time
// or the edge of a busy window.
func (m *mixMemory) nextEvent(now dram.Cycle) dram.Cycle {
	next := dram.Never
	for _, at := range m.issued {
		next = min(next, at+m.missLat/2)
	}
	base := now - now%m.period
	for _, edge := range []dram.Cycle{base + m.busyFrom, base + m.busyTo, base + m.period + m.busyFrom} {
		if edge > now {
			next = min(next, edge)
		}
	}
	return next
}

// cycleProbe expands probe segments into per-cycle rows and counts the
// single-cycle segments.
type cycleProbe struct {
	rows    []cycleRow
	singles []dram.Cycle // from of every single-cycle segment
}

type cycleRow struct {
	retired    uint64
	dispatched bool
	bp         bool
}

func (p *cycleProbe) CoreSegment(from, to dram.Cycle, retired uint64, dispCycles dram.Cycle, bp bool) {
	if dram.Cycle(len(p.rows)) != from {
		panic("probe segments are not contiguous")
	}
	n := to - from
	if retired%uint64(n) != 0 {
		panic("probe segment retires a non-uniform count")
	}
	for k := dram.Cycle(0); k < n; k++ {
		p.rows = append(p.rows, cycleRow{retired / uint64(n), k < dispCycles, bp})
	}
	if n == 1 {
		p.singles = append(p.singles, from)
	}
}

// TestCatchUpMatchesPerCycle drives one core over the mixed trace twice:
// stepped every cycle, and stepped only at its NextEvent wakes (plus
// every memory event, re-polling a core blocked on an unserviced head
// the way the event engine does). Retired, the whole CPI stack and
// the per-cycle expansion of the probe segments must be identical, and
// the wake-driven run may replay only a constant number of single
// cycles per memory operation: catchUp folds everything else.
func TestCatchUpMatchesPerCycle(t *testing.T) {
	const end = dram.Cycle(400_000)
	type outcome struct {
		retired, memOps uint64
		cpi             telemetry.CPIStack
		probe           *cycleProbe
		stepped         map[dram.Cycle]bool
	}
	run := func(sparse bool) outcome {
		m := &mixMemory{hitLat: 40, missLat: 300, busyFrom: 700, busyTo: 760, period: 9000}
		c := New(0, newMixTrace(1), m)
		p := &cycleProbe{}
		c.SetProbe(p)
		stepped := map[dram.Cycle]bool{}
		wake := dram.Cycle(0)
		for now := dram.Cycle(0); now < end; {
			m.tick(now)
			switch {
			case !sparse || now >= wake || c.Stalled() || now == end-1:
				c.Step(now)
				stepped[now] = true
				wake = c.NextEvent(now)
			case wake == dram.Never:
				wake = c.NextEvent(now)
			}
			next := now + 1
			if sparse {
				next = max(now+1, min(wake, m.nextEvent(now), end-1))
			}
			now = next
		}
		return outcome{c.Retired(), c.MemReads() + c.MemWrites(), c.CPI(), p, stepped}
	}
	dense, sparse := run(false), run(true)
	if dense.retired != sparse.retired || dense.cpi != sparse.cpi {
		t.Fatalf("per-cycle: retired %d CPI %+v; at wakes: retired %d CPI %+v",
			dense.retired, dense.cpi, sparse.retired, sparse.cpi)
	}
	if dense.cpi.StallBP == 0 || dense.cpi.StallROB == 0 || dense.cpi.Dispatch == 0 || dense.memOps < 1000 {
		t.Fatalf("trace too tame: CPI %+v, %d memory operations", dense.cpi, dense.memOps)
	}
	if len(dense.probe.rows) != len(sparse.probe.rows) {
		t.Fatalf("probe covers %d cycles per-cycle, %d at wakes", len(dense.probe.rows), len(sparse.probe.rows))
	}
	for cyc, row := range dense.probe.rows {
		if sparse.probe.rows[cyc] != row {
			t.Fatalf("cycle %d: per-cycle probe %+v, at wakes %+v", cyc, row, sparse.probe.rows[cyc])
		}
	}
	replayed := 0
	for _, from := range sparse.probe.singles {
		if !sparse.stepped[from] {
			replayed++
		}
	}
	if limit := 3 * int(sparse.memOps); replayed > limit {
		t.Fatalf("catchUp replayed %d single cycles for %d memory operations (limit %d)",
			replayed, sparse.memOps, limit)
	}
	t.Logf("%d memory operations, %d Steps, %d replayed single cycles, %d cycles",
		sparse.memOps, len(sparse.stepped), replayed, end)
}

// timedMemory answers writes (posted) and reads to even lines (LLC
// hits) after hitLat, and keeps reads to odd lines in flight with a
// completion time missLat after issue. It
// keeps no reference to a request, so a core over it runs in constant
// memory.
type timedMemory struct{ hitLat, missLat dram.Cycle }

func (m timedMemory) Access(now dram.Cycle, _ int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
	if req.IsWrite || req.Addr/64%2 == 0 {
		return m.hitLat, nil, true
	}
	req.Done, req.DoneAt = true, now+m.missLat
	return 0, req, true
}

// TestStepDoesNotAllocate: once the request pool is warm, a Step (and
// the catch-up it runs) allocates nothing.
func TestStepDoesNotAllocate(t *testing.T) {
	m := timedMemory{hitLat: 40, missLat: 150}
	c := New(0, &evScriptTrace{recs: []Record{{Bubbles: 30, Addr: 0}, {Bubbles: 3, Addr: 64}, {Bubbles: 90, Addr: 192}}}, m)
	now := dram.Cycle(0)
	step := func() {
		c.Step(now)
		now = max(now+1, min(c.NextEvent(now), now+50))
	}
	for range 10_000 {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("Step allocates %.1f times per call", a)
	}
}

// BenchmarkCoreCatchUp times a core on a bubble-heavy trace (runs of
// 200-400 instructions between LLC hits and in-flight reads) stepped
// only at its NextEvent wakes, so nearly all of its cycles go through
// catchUp's folds. One op is one wake.
func BenchmarkCoreCatchUp(b *testing.B) {
	recs := []Record{
		{Bubbles: 300, Addr: 0},
		{Bubbles: 200, Addr: 64},
		{Bubbles: 400, Addr: 128},
		{Bubbles: 250, Addr: 192, IsWrite: true},
	}
	c := New(0, &evScriptTrace{recs: recs}, timedMemory{hitLat: 40, missLat: 300})
	now := dram.Cycle(0)
	b.ReportAllocs()
	for range b.N {
		c.Step(now)
		now = max(now+1, c.NextEvent(now))
		if now == dram.Never {
			b.Fatal("core blocked")
		}
	}
	b.ReportMetric(float64(now)/float64(b.N), "cycles/op")
}
