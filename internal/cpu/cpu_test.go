package cpu

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/mem"
)

// scriptTrace replays a fixed record cyclically.
type scriptTrace struct {
	recs []Record
	i    int
}

func (s *scriptTrace) Next() Record {
	r := s.recs[s.i%len(s.recs)]
	s.i++
	return r
}

// fixedMemory answers every access synchronously with a fixed latency.
type fixedMemory struct {
	lat      dram.Cycle
	accesses int
	writes   int
}

func (m *fixedMemory) Access(_ dram.Cycle, _ int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
	m.accesses++
	if req.IsWrite {
		m.writes++
	}
	return m.lat, nil, true
}

// pendingMemory returns async requests that complete after lat cycles.
type pendingMemory struct {
	lat     dram.Cycle
	pending []*mem.Request
	dueAt   []dram.Cycle
	refuse  bool
}

func (m *pendingMemory) Access(now dram.Cycle, _ int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
	if m.refuse {
		return 0, nil, false
	}
	req.Done = false
	m.pending = append(m.pending, req)
	m.dueAt = append(m.dueAt, now+m.lat)
	return 0, req, true
}

func (m *pendingMemory) tick(now dram.Cycle) {
	for i, r := range m.pending {
		if !r.Done && now >= m.dueAt[i] {
			r.Done = true
			r.DoneAt = m.dueAt[i]
		}
	}
}

func TestPureComputeRunsAtFullWidth(t *testing.T) {
	// Bubbles-heavy trace with instant memory: IPC should approach 4.
	tr := &scriptTrace{recs: []Record{{Bubbles: 399, Addr: 64}}}
	m := &fixedMemory{lat: 0}
	c := New(0, tr, m)
	for now := dram.Cycle(0); now < 10000; now++ {
		c.Step(now)
	}
	if ipc := c.IPC(); ipc < 3.8 {
		t.Fatalf("compute IPC = %.2f, want ~4", ipc)
	}
}

func TestMemoryLatencyLowersIPC(t *testing.T) {
	tr := &scriptTrace{recs: []Record{{Bubbles: 3, Addr: 64}}}
	fast := &fixedMemory{lat: 1}
	cf := New(0, tr, fast)
	for now := dram.Cycle(0); now < 20000; now++ {
		cf.Step(now)
	}

	tr2 := &scriptTrace{recs: []Record{{Bubbles: 3, Addr: 64}}}
	slow := &pendingMemory{lat: 400}
	cs := New(0, tr2, slow)
	for now := dram.Cycle(0); now < 20000; now++ {
		slow.tick(now)
		cs.Step(now)
	}
	if cs.IPC() >= cf.IPC() {
		t.Fatalf("slow memory IPC %.3f >= fast %.3f", cs.IPC(), cf.IPC())
	}
}

func TestROBLimitsOutstandingMisses(t *testing.T) {
	// All-memory trace with memory that never completes: the core must
	// stop after at most ROBSize outstanding accesses.
	tr := &scriptTrace{recs: []Record{{Addr: 64}}}
	m := &pendingMemory{lat: 1 << 40}
	c := New(0, tr, m)
	for now := dram.Cycle(0); now < 1000; now++ {
		c.Step(now)
	}
	if len(m.pending) > ROBSize {
		t.Fatalf("%d outstanding accesses exceed ROB %d", len(m.pending), ROBSize)
	}
	if len(m.pending) < ROBSize/2 {
		t.Fatalf("only %d outstanding; ROB should fill", len(m.pending))
	}
}

func TestBackpressureStallsCore(t *testing.T) {
	tr := &scriptTrace{recs: []Record{{Addr: 64}}}
	m := &pendingMemory{refuse: true}
	c := New(0, tr, m)
	for now := dram.Cycle(0); now < 100; now++ {
		c.Step(now)
	}
	if c.Retired() > ROBSize {
		t.Fatalf("retired %d with memory refusing", c.Retired())
	}
	if c.StallCycles() == 0 {
		t.Fatal("expected stall cycles")
	}
}

func TestWritesArePosted(t *testing.T) {
	// Writes retire without waiting for completion.
	tr := &scriptTrace{recs: []Record{{Bubbles: 1, Addr: 64, IsWrite: true}}}
	m := &pendingMemory{lat: 1 << 40} // never completes
	c := New(0, tr, m)
	for now := dram.Cycle(0); now < 5000; now++ {
		c.Step(now)
	}
	if c.Retired() < 1000 {
		t.Fatalf("posted writes should not block retirement; retired %d", c.Retired())
	}
	if c.MemWrites() == 0 {
		t.Fatal("no writes issued")
	}
}

func TestReadsBlockRetirement(t *testing.T) {
	tr := &scriptTrace{recs: []Record{{Bubbles: 1, Addr: 64}}}
	m := &pendingMemory{lat: 1 << 40}
	c := New(0, tr, m)
	for now := dram.Cycle(0); now < 5000; now++ {
		c.Step(now)
	}
	// ROB fills with blocked reads: retirement bounded by ROB size-ish.
	if c.Retired() > 2*ROBSize {
		t.Fatalf("blocked reads should cap retirement; retired %d", c.Retired())
	}
}

func TestCompletionWakesRetirement(t *testing.T) {
	tr := &scriptTrace{recs: []Record{{Addr: 64}}}
	m := &pendingMemory{lat: 50}
	c := New(0, tr, m)
	for now := dram.Cycle(0); now < 10000; now++ {
		m.tick(now)
		c.Step(now)
	}
	if c.Retired() < 100 {
		t.Fatalf("retired only %d with completing memory", c.Retired())
	}
}

func TestNonCacheableTagging(t *testing.T) {
	tr := &scriptTrace{recs: []Record{{Addr: 0x1000, NonCacheable: true}}}
	m := &fixedMemory{lat: 1}
	c := New(0, tr, m)
	// Capture the first request's address through a wrapper.
	var seen uint64
	wrapped := memFunc(func(now dram.Cycle, core int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
		seen = req.Addr
		return m.Access(now, core, req)
	})
	c = New(0, tr, wrapped)
	c.Step(0)
	if !IsNC(seen) {
		t.Fatalf("address %x not NC-tagged", seen)
	}
	if StripNC(seen) != 0x1000 {
		t.Fatalf("StripNC = %x", StripNC(seen))
	}
}

type memFunc func(dram.Cycle, int, *mem.Request) (dram.Cycle, *mem.Request, bool)

func (f memFunc) Access(now dram.Cycle, core int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
	return f(now, core, req)
}

func TestNCHelpers(t *testing.T) {
	a := uint64(0xABC)
	if IsNC(a) {
		t.Fatal("untagged address reported NC")
	}
	m := MarkNC(a)
	if !IsNC(m) || StripNC(m) != a {
		t.Fatal("NC round trip failed")
	}
}

func TestIPCZeroBeforeRun(t *testing.T) {
	c := New(0, &scriptTrace{recs: []Record{{Addr: 0}}}, &fixedMemory{})
	if c.IPC() != 0 {
		t.Fatal("IPC before stepping should be 0")
	}
}
