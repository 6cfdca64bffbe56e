// Package cpu implements the out-of-order core model of the paper's
// Table I system: 4GHz, 4-wide, 128-entry ROB, trace-driven, in the
// style of Ramulator's SimpleO3 core. Non-memory instructions retire at
// core width; memory instructions occupy a ROB entry until the memory
// hierarchy answers, and the core stalls when the ROB fills — which is
// how DRAM bandwidth loss (the currency of every Perf-Attack in the
// paper) becomes IPC loss.
//
// The ROB stores only the memory instructions that wait (LLC hits and
// in-flight reads); bubbles and posted writes are counted, not stored.
// Driven every cycle, Step costs O(Width). Driven at NextEvent wakes,
// Step's catch-up folds the skipped cycles in closed form over the
// memory entries, so a core costs O(memory operations), not
// O(instructions).
package cpu

import (
	"dapper/internal/dram"
	"dapper/internal/mem"
	"dapper/internal/telemetry"
)

// Record is one trace step: Bubbles non-memory instructions followed by
// one 64B memory access. NonCacheable accesses bypass the LLC (attack
// traces use this to guarantee DRAM activations, modeling
// flush+hammer patterns).
type Record struct {
	Bubbles      int
	Addr         uint64
	IsWrite      bool
	NonCacheable bool
}

// Trace is an infinite instruction stream; implementations are
// generative (seeded PRNG) so they need no storage.
type Trace interface {
	Next() Record
}

// Memory is the path from a core into the memory hierarchy (the system
// wires an LLC and the memory controllers behind this interface).
//
// Access returns:
//   - ok=false: the hierarchy cannot accept the request (backpressure);
//     the core must retry next cycle.
//   - pending=nil: the access completed synchronously (e.g. LLC hit)
//     with the given latency.
//   - pending!=nil: in flight; the access is complete when pending.Done
//     and pending.DoneAt <= now.
type Memory interface {
	Access(now dram.Cycle, core int, req *mem.Request) (latency dram.Cycle, pending *mem.Request, ok bool)
}

// Width is the issue/retire width of the core.
const Width = 4

// ROBSize is the reorder-buffer capacity (Table I: 128 entries).
const ROBSize = 128

// memEntry is a memory instruction in the ROB: an LLC hit, ready at
// completeAt, or an in-flight read, ready once pending is done.
type memEntry struct {
	seq        uint64 // the instruction's position in dispatch order
	completeAt dram.Cycle
	pending    *mem.Request
}

// readyAt returns the first cycle the entry can retire, or dram.Never
// while its request has no completion time yet.
func (e *memEntry) readyAt() dram.Cycle {
	if e.pending == nil {
		return e.completeAt
	}
	if e.pending.Done {
		return e.pending.DoneAt
	}
	return dram.Never
}

// Core is one out-of-order core. Not safe for concurrent use.
//
// The ROB holds count instructions with sequence numbers head,
// head+1, ... in dispatch order. Only memory instructions that have to
// wait (LLC hits and in-flight reads) are stored, in a ring; every
// other instruction (a bubble or a posted write) is ready from the cycle
// after its dispatch, and retirement runs before dispatch within a
// cycle, so it is ready whenever it reaches the head and needs no slot.
// Dispatching k bubbles is count += k, and retirement and the catch-up
// folds walk memory entries only.
type Core struct {
	id    int
	trace Trace
	memIf Memory

	head  uint64 // sequence number of the oldest instruction
	count int

	ring  [ROBSize]memEntry // the ROB's memory instructions, oldest at mhead
	mhead int
	mlen  int

	// Trace cursor: bubbles still to dispatch before the next memory
	// access.
	bubbles   int
	memRecord Record
	haveMem   bool

	// Pending memory access that could not be issued (backpressure).
	stalledReq *mem.Request

	pool []*mem.Request

	retired   uint64
	memReads  uint64
	memWrites uint64
	// cpi partitions every stepped cycle; only account writes it.
	cpi telemetry.CPIStack

	// lastDispatched records how many instructions the most recent Step
	// dispatched, for NextEvent's progress test; lastStep is the cycle of
	// that Step, so a gap-driven Step can replay the skipped cycles.
	lastDispatched int
	lastStep       dram.Cycle
	wake           dram.Cycle   // NextEvent's last answer; 0 once Step made it stale
	waitingOn      *mem.Request // the in-flight head a Never wake waits on, else nil

	// probe, when attached, receives the core's exact retirement
	// trajectory as uniform segments; nil costs one branch per Step.
	probe telemetry.CoreProbe
}

// New builds a core reading from trace and accessing memory through m.
func New(id int, trace Trace, m Memory) *Core {
	return &Core{id: id, trace: trace, memIf: m, lastStep: -1}
}

// Retired returns instructions retired so far.
func (c *Core) Retired() uint64 { return c.retired }

// IPC returns retired instructions per cycle.
func (c *Core) IPC() float64 {
	if c.cpi.Cycles == 0 {
		return 0
	}
	return float64(c.retired) / float64(c.cpi.Cycles)
}

// MemReads and MemWrites return issued access counts.
func (c *Core) MemReads() uint64  { return c.memReads }
func (c *Core) MemWrites() uint64 { return c.memWrites }

// CPI returns the core's CPI stack: every cycle stepped so far, split
// into dispatching cycles, ROB waits (full ROB or an unready head) and
// backpressure retries of a memory access the hierarchy refused.
func (c *Core) CPI() telemetry.CPIStack { return c.cpi }

// account charges n stepped cycles, the first disp of which dispatched,
// to the CPI stack. The discriminator for the rest is stalledReq: a
// core holding a refused request has already drained its bubbles, so
// every zero-dispatch cycle while it holds one is a backpressure retry,
// and every other one an ROB wait. It inlines, so a Step pays no call.
func (c *Core) account(n, disp dram.Cycle) {
	c.cpi.Cycles += uint64(n)
	c.cpi.Dispatch += uint64(disp)
	if c.stalledReq != nil {
		c.cpi.StallBP += uint64(n - disp)
	} else {
		c.cpi.StallROB += uint64(n - disp)
	}
}

// SetProbe attaches a telemetry probe (nil detaches). The probe sees
// every stepped cycle exactly once, as uniform segments: the per-cycle
// Step path emits single-cycle segments, and catchUp's O(1) folds emit
// one multi-cycle segment per fold with the same per-cycle semantics —
// so the folded series is byte-identical whichever engine drives the
// core. Attach before the first Step.
func (c *Core) SetProbe(p telemetry.CoreProbe) { c.probe = p }

// Stalled reports whether the core is holding a memory access the
// hierarchy refused (backpressure). A stalled core retries every cycle,
// so the event engine must step it at every iteration — the retry's
// success depends on memory-system state the core cannot predict.
func (c *Core) Stalled() bool { return c.stalledReq != nil }

func (c *Core) getReq() *mem.Request {
	if n := len(c.pool); n > 0 {
		r := c.pool[n-1]
		c.pool = c.pool[:n-1]
		*r = mem.Request{}
		return r
	}
	return &mem.Request{}
}

func (c *Core) putReq(r *mem.Request) {
	if len(c.pool) < 256 {
		c.pool = append(c.pool, r)
	}
}

// memHead returns the oldest memory entry, or nil if the ROB holds none.
func (c *Core) memHead() *memEntry {
	if c.mlen == 0 {
		return nil
	}
	return &c.ring[c.mhead]
}

// pushMem records a memory instruction dispatched into the ROB's tail.
func (c *Core) pushMem(completeAt dram.Cycle, pending *mem.Request) {
	c.ring[(c.mhead+c.mlen)%ROBSize] = memEntry{seq: c.head + uint64(c.count), completeAt: completeAt, pending: pending}
	c.mlen++
	c.count++
}

// popMem drops the oldest memory entry, returning its request to the pool.
func (c *Core) popMem() {
	e := &c.ring[c.mhead]
	if e.pending != nil {
		c.putReq(e.pending)
		e.pending = nil
	}
	c.mhead = (c.mhead + 1) % ROBSize
	c.mlen--
}

// advance retires the n oldest instructions, which the caller has
// proved ready, popping the memory entries among them.
func (c *Core) advance(n int) {
	c.head += uint64(n)
	c.count -= n
	c.retired += uint64(n)
	for e := c.memHead(); e != nil && e.seq < c.head; e = c.memHead() {
		c.popMem()
	}
}

// retire retires up to Width ready instructions at cycle now, oldest
// first, stopping at the first memory entry not ready by now.
func (c *Core) retire(now dram.Cycle) {
	left := Width
	for left > 0 && c.count > 0 {
		n := min(left, c.count)
		if e := c.memHead(); e != nil {
			if gap := int(e.seq - c.head); gap > 0 {
				n = min(n, gap)
			} else if e.readyAt() > now {
				return
			} else {
				n = 1
			}
		}
		c.advance(n)
		left -= n
	}
}

// dispatchBubbles dispatches up to limit bubbles into the ROB's free
// slots and returns how many it dispatched.
func (c *Core) dispatchBubbles(limit int) int {
	k := min(limit, ROBSize-c.count, c.bubbles)
	c.count += k
	c.bubbles -= k
	return k
}

// Step advances the core to cycle now: retire up to Width completed
// instructions, then dispatch up to Width new ones. Step may be driven
// every cycle, or with gaps when the event engine skipped cycles it
// proved interaction-free (see NextEvent); skipped cycles are replayed
// exactly by catchUp first.
func (c *Core) Step(now dram.Cycle) {
	if now > c.lastStep+1 {
		c.catchUp(c.lastStep+1, now)
	}
	c.lastStep = now
	c.wake = 0
	retiredBefore := c.retired
	c.retire(now)

	// Dispatch.
	dispatched := 0
	for dispatched < Width && c.count < ROBSize {
		if c.bubbles > 0 {
			dispatched += c.dispatchBubbles(Width - dispatched)
			continue
		}
		if !c.haveMem && c.stalledReq == nil {
			rec := c.trace.Next()
			c.bubbles = rec.Bubbles
			c.memRecord = rec
			c.haveMem = true
			if c.bubbles > 0 {
				continue
			}
		}
		// Issue the memory access (possibly one stalled from earlier).
		req := c.stalledReq
		if req == nil {
			req = c.getReq()
			req.Addr = c.memRecord.Addr
			if c.memRecord.NonCacheable {
				req.Addr = MarkNC(req.Addr)
			}
			req.IsWrite = c.memRecord.IsWrite
			req.Core = c.id
			c.haveMem = false
		}
		lat, pending, ok := c.memIf.Access(now, c.id, req)
		if !ok {
			c.stalledReq = req
			break
		}
		c.stalledReq = nil
		switch {
		case req.IsWrite:
			c.memWrites++
			// Posted write: retires from the next cycle, like a bubble;
			// the request object is owned by the memory system until
			// done, so don't pool it.
			c.count++
			if pending == nil {
				c.putReq(req)
			}
		case pending != nil:
			c.memReads++
			c.pushMem(0, pending)
		default:
			c.memReads++
			c.pushMem(now+lat, nil)
			c.putReq(req)
		}
		dispatched++
	}
	c.lastDispatched = dispatched
	disp := dram.Cycle(min(dispatched, 1))
	c.account(1, disp)
	if c.probe != nil {
		c.probe.CoreSegment(now, now+1, c.retired-retiredBefore, disp, c.stalledReq != nil)
	}
}

// catchUp replays the cycles [from, to) the event engine skipped:
// in-order retirement plus bubble-only dispatch. The engine never skips
// past NextEvent's horizon, so no memory access can fall in this range —
// a bubble run leaves at least Width bubbles pending on every replayed
// cycle, which means the dispatch loop can never reach the trace's
// memory record early.
//
// Each fold costs O(1) plus the memory entries it passes, so a stretch
// costs O(memory operations), not O(instructions): only a memory entry
// can end a fold early, and it does so at most a constant number of
// times (a partial-width retire cycle, then a head-stalled fold).
func (c *Core) catchUp(from, to dram.Cycle) {
	for cyc := from; cyc < to; {
		// Retire-active phase: each cycle retires Width instructions and
		// dispatches Width bubbles, so the ROB keeps its size. Bubbles are
		// always ready (count >= Width keeps each one behind at least a
		// full cycle of older instructions), so the fold runs until the
		// bubbles or the range run out, or a memory entry at position p
		// is not ready by its retire cycle cyc + p/Width.
		if c.count >= Width && c.bubbles >= Width {
			m := min(to-cyc, dram.Cycle(c.bubbles/Width))
			for i := 0; i < c.mlen; i++ {
				e := &c.ring[(c.mhead+i)%ROBSize]
				p := dram.Cycle(e.seq - c.head)
				if p >= m*Width {
					break
				}
				if e.readyAt() > cyc+p/Width {
					m = p / Width
					break
				}
			}
			if m > 0 {
				disp := int(m) * Width
				c.advance(disp)
				c.count += disp
				c.bubbles -= disp
				c.account(m, m)
				if c.probe != nil {
					c.probe.CoreSegment(cyc, cyc+m, uint64(disp), m, false)
				}
				cyc += m
				continue
			}
		}
		// Head-stalled phase: an unready head entry blocks all
		// retirement until its completion time, so the replayed cycles
		// only dispatch bubbles (min(Width, room, bubbles) per cycle,
		// greedily) — fold the stretch in closed form. A head that is not
		// a memory entry is ready.
		if e := c.memHead(); e != nil && e.seq == c.head {
			if headReadyAt := e.readyAt(); headReadyAt > cyc {
				n := min(to, headReadyAt) - cyc
				// Greedy dispatch fills full-width cycles first, so the
				// dispatching prefix is ceil(disp/Width) cycles long. A
				// frozen stalledReq means the bubbles drained before the
				// refused issue (disp is then 0), so account charges the
				// whole stretch to backpressure; otherwise to the ROB head.
				disp := dram.Cycle((c.dispatchBubbles(int(n)*Width) + Width - 1) / Width)
				c.account(n, disp)
				if c.probe != nil {
					c.probe.CoreSegment(cyc, cyc+n, 0, disp, c.stalledReq != nil)
				}
				cyc += n
				continue
			}
		}
		// One cycle at a time otherwise: a partial-width retire, or a
		// nearly empty ROB or bubble run.
		retiredBefore := c.retired
		c.retire(cyc)
		disp := dram.Cycle(min(c.dispatchBubbles(Width), 1))
		c.account(1, disp)
		if c.probe != nil {
			c.probe.CoreSegment(cyc, cyc+1, c.retired-retiredBefore, disp, c.stalledReq != nil)
		}
		cyc++
	}
}

// NextEvent returns the earliest future cycle at which the core can
// interact with the rest of the system: the end of the current bubble
// run (the soonest a memory access could issue at full dispatch width),
// now+1 while it is otherwise dispatching, the ROB head's completion
// time when the ROB is full, or dram.Never when progress depends
// entirely on the memory system (backpressure, or an in-flight head
// request whose completion time is not yet known — the memory
// controller's own events cover those cases). The answer is cached
// until the next Step while it lies after now; a Never that waits on an
// in-flight head is recomputed once the controller sets the head's Done.
// If the engine skips ahead, the next Step replays the skipped cycles.
func (c *Core) NextEvent(now dram.Cycle) dram.Cycle {
	if c.wake <= now || c.waitingOn != nil && c.waitingOn.Done {
		c.wake = c.nextEvent(now)
	}
	return c.wake
}

// Wake returns NextEvent's cached answer, 0 once Step cleared it.
func (c *Core) Wake() dram.Cycle { return c.wake }

// nextEvent is NextEvent's recompute, kept apart so the cached read inlines.
func (c *Core) nextEvent(now dram.Cycle) dram.Cycle {
	c.waitingOn = nil
	if c.lastDispatched > 0 {
		if c.bubbles > 0 && c.stalledReq == nil {
			// First cycle at which the trace's pending memory record
			// could dispatch: all bubbles drained at Width per cycle,
			// with issue width left over. ROB stalls only push this
			// later, so it is a safe horizon.
			return now + (dram.Cycle(c.bubbles)+dram.Cycle(Width))/dram.Cycle(Width)
		}
		return now + 1
	}
	if c.count == 0 {
		return dram.Never
	}
	if e := c.memHead(); e != nil && e.seq == c.head {
		if r := e.readyAt(); r > now {
			if r == dram.Never {
				c.waitingOn = e.pending
			}
			return r
		}
	}
	return now + 1 // a ready head: retirement just capped by Width
}

// NCAddr marks addresses as non-cacheable via their top bit. Traces set
// it through Record.NonCacheable; the hierarchy strips it before
// address decomposition. Using an address bit keeps mem.Request free of
// model-only flags.
const NCAddr uint64 = 1 << 63

// MarkNC returns addr tagged non-cacheable.
func MarkNC(addr uint64) uint64 { return addr | NCAddr }

// IsNC reports whether addr carries the non-cacheable tag.
func IsNC(addr uint64) bool { return addr&NCAddr != 0 }

// StripNC removes the tag.
func StripNC(addr uint64) uint64 { return addr &^ NCAddr }
