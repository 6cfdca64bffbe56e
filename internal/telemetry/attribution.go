package telemetry

import (
	"fmt"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// This file is the slowdown-attribution layer: exact cycle accounting
// for *why* a core lost cycles. Two decompositions ride together:
//
//   - CPIStack partitions every core cycle into dispatch vs ROB-full
//     vs memory-backpressure stalls (cpu.Core.CPI, accumulated as the
//     core steps).
//   - MemBlame partitions every demand read's queue+service wait into
//     blame sources (row conflicts with a culprit core, mitigation
//     blocks, REF, tracker-injected traffic, throttling, residual
//     scheduling), folded from the controller's serve and block events
//     by the Recorder.
//
// Both are conservation-checked (buckets sum exactly to cycles / to
// the controller's TotalReadWait) and, like the Series fold, depend
// only on event timestamps — so the event and cycle engines produce
// byte-identical Attributions.

// CPIStack is one core's whole-run cycle partition. Dispatch counts
// cycles that issued at least one instruction; StallROB zero-dispatch
// cycles while the core was not holding a refused memory request
// (ROB-full / head-of-ROB wait); StallBP zero-dispatch cycles spent
// retrying a memory access the hierarchy refused (backpressure).
// Dispatch + StallROB + StallBP == Cycles exactly.
type CPIStack struct {
	Cycles   uint64 `json:"cycles"`
	Dispatch uint64 `json:"dispatch"`
	StallROB uint64 `json:"stall_rob"`
	StallBP  uint64 `json:"stall_bp"`
}

// MemBlame partitions one core's aggregate demand-read wait (the exact
// quantity mem.Stats.TotalReadWait accumulates: DoneAt minus enqueue,
// summed over demand reads) into blame sources. The buckets sum to
// Total exactly. Unlike CPIStack this is a request-side decomposition:
// overlapping in-flight reads each contribute their full wait, so
// Total routinely exceeds the core's stall cycles.
type MemBlame struct {
	// Intrinsic is the unavoidable service floor: row-hit latency plus
	// burst, plus the activate cost on a precharged bank.
	Intrinsic uint64 `json:"intrinsic"`
	// Conflict is the extra precharge+activate latency paid because
	// another request left a different row open (the culprit lands in
	// the blame matrix when it was a core).
	Conflict uint64 `json:"conflict"`
	// QueueDemand is queue time spent behind other demand traffic
	// occupying the bank (including write-backs).
	QueueDemand uint64 `json:"queue_demand"`
	// Inject is delay caused by tracker-injected counter traffic:
	// queue time behind injected serves, plus conflict latency when an
	// injected request left the conflicting row open.
	Inject uint64 `json:"inject"`
	// Mitigation is queue time spent behind VRR/RFMsb/DRFMsb bank
	// blocks.
	Mitigation uint64 `json:"mitigation"`
	// REF is queue time spent behind auto-refresh blocks; Bulk behind
	// whole-rank structure-reset sweeps.
	REF  uint64 `json:"ref"`
	Bulk uint64 `json:"bulk"`
	// Throttle is queue time gated by the tracker's activation
	// throttle (BlockHammer-style), counted inside otherwise-idle gaps.
	Throttle uint64 `json:"throttle"`
	// Sched is the residual: bank/rank timing spacing (tRC, tRRD,
	// tFAW-like), data-bus occupancy and FR-FCFS ordering.
	Sched uint64 `json:"sched"`
	// Total is the independently accumulated grand total, equal to the
	// controller-side TotalReadWait contribution of this core.
	Total uint64 `json:"total"`
}

// bucket indices for the internal accumulators; must mirror MemBlame's
// field order (bucketNames below is the single source for rendering).
const (
	bucketIntrinsic = iota
	bucketConflict
	bucketQueueDemand
	bucketInject
	bucketMitigation
	bucketREF
	bucketBulk
	bucketThrottle
	bucketSched
	numBlameBuckets
)

// BlameBucketNames lists the MemBlame buckets in canonical order, for
// renderers.
var BlameBucketNames = [numBlameBuckets]string{
	"intrinsic", "conflict", "queue_demand", "inject", "mitigation",
	"ref", "bulk", "throttle", "sched",
}

type blameBuckets [numBlameBuckets]uint64

func (b *blameBuckets) sum() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

func (b *blameBuckets) toMemBlame() MemBlame {
	return MemBlame{
		Intrinsic:   b[bucketIntrinsic],
		Conflict:    b[bucketConflict],
		QueueDemand: b[bucketQueueDemand],
		Inject:      b[bucketInject],
		Mitigation:  b[bucketMitigation],
		REF:         b[bucketREF],
		Bulk:        b[bucketBulk],
		Throttle:    b[bucketThrottle],
		Sched:       b[bucketSched],
		Total:       b.sum(),
	}
}

// Buckets returns the MemBlame values in canonical bucket order
// (matching BlameBucketNames), for renderers.
func (m MemBlame) Buckets() [numBlameBuckets]uint64 {
	return [numBlameBuckets]uint64{
		m.Intrinsic, m.Conflict, m.QueueDemand, m.Inject, m.Mitigation,
		m.REF, m.Bulk, m.Throttle, m.Sched,
	}
}

// CoreAttribution is one core's slowdown attribution.
type CoreAttribution struct {
	CPI CPIStack `json:"cpi"`
	Mem MemBlame `json:"mem"`
}

// Attribution is one run's whole-run slowdown attribution: per-core
// CPI stacks and memory-blame breakdowns, plus the N×N core→core
// interference blame matrix. Matrix[v][c] is the number of wait cycles
// victim core v lost to culprit core c — row conflicts c caused, queue
// time behind c's serves, and mitigation blocks c's activations
// triggered. The diagonal is self-interference (a core queuing behind
// its own overlapping requests, or tripping mitigations on itself).
type Attribution struct {
	Cores  []CoreAttribution `json:"cores"`
	Matrix [][]uint64        `json:"matrix"`
}

// SumMem returns the memory-blame breakdowns of the given cores summed
// bucket by bucket, Total included.
func (a *Attribution) SumMem(cores []int) MemBlame {
	var b blameBuckets
	var total uint64
	for _, c := range cores {
		m := a.Cores[c].Mem
		for k, v := range m.Buckets() {
			b[k] += v
		}
		total += m.Total
	}
	sum := b.toMemBlame()
	sum.Total = total
	return sum
}

// Validate checks the Attribution's internal conservation: each CPI
// stack partitions its cycles exactly, each MemBlame's buckets sum to
// its Total, the matrix is square, and no matrix row claims more
// cycles than the victim's culprit-attributable buckets.
func (a *Attribution) Validate() error {
	n := len(a.Cores)
	if len(a.Matrix) != n {
		return fmt.Errorf("attribution: matrix has %d rows, want %d", len(a.Matrix), n)
	}
	for i := range a.Cores {
		c := &a.Cores[i]
		if c.CPI.Dispatch+c.CPI.StallROB+c.CPI.StallBP != c.CPI.Cycles {
			return fmt.Errorf("attribution: core %d CPI buckets %d+%d+%d != cycles %d",
				i, c.CPI.Dispatch, c.CPI.StallROB, c.CPI.StallBP, c.CPI.Cycles)
		}
		b := c.Mem.Buckets()
		var sum uint64
		for _, v := range b {
			sum += v
		}
		if sum != c.Mem.Total {
			return fmt.Errorf("attribution: core %d blame buckets sum %d != total %d", i, sum, c.Mem.Total)
		}
		if len(a.Matrix[i]) != n {
			return fmt.Errorf("attribution: matrix row %d has %d cols, want %d", i, len(a.Matrix[i]), n)
		}
		var row uint64
		for _, v := range a.Matrix[i] {
			row += v
		}
		if bound := c.Mem.Conflict + c.Mem.QueueDemand + c.Mem.Mitigation + c.Mem.Bulk; row > bound {
			return fmt.Errorf("attribution: matrix row %d claims %d cycles, victim buckets bound %d", i, row, bound)
		}
	}
	return nil
}

// CheckSeries cross-checks the windowed stacks riding a Series against
// this Attribution's grand totals: every per-core blame series and
// stall-split series must sum exactly to its total (per-window
// conservation). Recorder.Finish calls it on every windowed
// attribution run.
func (a *Attribution) CheckSeries(s *Series) error {
	if s == nil {
		return nil
	}
	if s.Blame != nil {
		if len(s.Blame) != len(a.Cores) {
			return fmt.Errorf("attribution: series has %d blame cores, attribution %d", len(s.Blame), len(a.Cores))
		}
		for i := range s.Blame {
			want := a.Cores[i].Mem.Buckets()
			got := s.Blame[i].bucketSlices()
			for b := 0; b < numBlameBuckets; b++ {
				if sumU(got[b]) != want[b] {
					return fmt.Errorf("attribution: core %d %s windows sum %d != total %d",
						i, BlameBucketNames[b], sumU(got[b]), want[b])
				}
			}
		}
	}
	for i := range s.Cores {
		cs := &s.Cores[i]
		if cs.StallROB == nil {
			continue
		}
		if i >= len(a.Cores) {
			return fmt.Errorf("attribution: series core %d has stall split but no attribution", i)
		}
		if sumU(cs.StallROB) != a.Cores[i].CPI.StallROB || sumU(cs.StallBP) != a.Cores[i].CPI.StallBP {
			return fmt.Errorf("attribution: core %d stall-split windows (%d rob, %d bp) != totals (%d, %d)",
				i, sumU(cs.StallROB), sumU(cs.StallBP), a.Cores[i].CPI.StallROB, a.Cores[i].CPI.StallBP)
		}
	}
	return nil
}

// BlameSeries is one core's per-window memory-blame time-series: the
// MemBlame buckets folded at the Series' window width. Window sums
// equal the Attribution grand totals exactly.
type BlameSeries struct {
	Intrinsic   []uint64 `json:"intrinsic"`
	Conflict    []uint64 `json:"conflict"`
	QueueDemand []uint64 `json:"queue_demand"`
	Inject      []uint64 `json:"inject"`
	Mitigation  []uint64 `json:"mitigation"`
	REF         []uint64 `json:"ref"`
	Bulk        []uint64 `json:"bulk"`
	Throttle    []uint64 `json:"throttle"`
	Sched       []uint64 `json:"sched"`
}

func (b *BlameSeries) bucketSlices() [numBlameBuckets][]uint64 {
	return [numBlameBuckets][]uint64{
		b.Intrinsic, b.Conflict, b.QueueDemand, b.Inject, b.Mitigation,
		b.REF, b.Bulk, b.Throttle, b.Sched,
	}
}

// blameCause tags one bank-ledger segment with why the bank was busy.
type blameCause uint8

const (
	// causeServeDemand: the bank was serving another demand request
	// (culprit = its core, or -1 for a write-back).
	causeServeDemand blameCause = iota
	// causeServeInject: the bank was serving tracker counter traffic.
	causeServeInject
	// causeMitigation: a VRR/RFMsb/DRFMsb block (culprit = the core
	// whose activation triggered it, -1 for periodic ticks).
	causeMitigation
	// causeREF: per-rank auto-refresh block.
	causeREF
	// causeBulk: whole-rank structure-reset sweep.
	causeBulk
)

// blockCauses maps a block event's cause to its ledger cause.
var blockCauses = [...]blameCause{
	rh.BlockMitigation: causeMitigation,
	rh.BlockREF:        causeREF,
	rh.BlockBulk:       causeBulk,
}

// bucket maps a segment cause to its MemBlame bucket.
func (c blameCause) bucket() int {
	switch c {
	case causeServeDemand:
		return bucketQueueDemand
	case causeServeInject:
		return bucketInject
	case causeMitigation:
		return bucketMitigation
	case causeREF:
		return bucketREF
	default:
		return bucketBulk
	}
}

// matrixEligible reports whether a culprit core can be charged in the
// blame matrix for this cause (injected serves and REF are system
// traffic: the Inject/REF buckets carry them).
func (c blameCause) matrixEligible() bool {
	switch c {
	case causeServeDemand, causeMitigation, causeBulk:
		return true
	}
	return false
}

// blameSeg is one claimed interval of a bank's busy timeline.
type blameSeg struct {
	from, to dram.Cycle
	culprit  int16
	cause    blameCause
}

// bankLedger is one bank's cause-tagged busy timeline: sorted,
// non-overlapping segments. Claims are first-come-first-claimed —
// overlapping claims keep only their uncovered cycles — which makes
// every waiter's decomposition over it exactly conserved, and
// deterministic because both engines emit the identical event order.
type bankLedger struct {
	segs []blameSeg
}

// prune drops segments that can no longer overlap any waiter: every
// waiting or future request has an enqueue cycle >= floor, and a
// segment matters only while its end exceeds the waiter's enqueue.
func (l *bankLedger) prune(floor dram.Cycle) {
	k := 0
	for k < len(l.segs) && l.segs[k].to <= floor {
		k++
	}
	if k > 0 {
		n := copy(l.segs, l.segs[k:])
		l.segs = l.segs[:n]
	}
}

// claim records [from, to) for cause, keeping only cycles no earlier
// claim covers. The common case (a serve or block starting at or after
// the last segment's start) appends; future-dated mitigation blocks
// can leave a later REF landing before them, which takes the general
// insertion path.
func (l *bankLedger) claim(from, to dram.Cycle, cause blameCause, culprit int16) {
	if from >= to {
		return
	}
	n := len(l.segs)
	if n == 0 || from >= l.segs[n-1].to {
		l.segs = append(l.segs, blameSeg{from: from, to: to, culprit: culprit, cause: cause})
		return
	}
	// General path: walk the overlapping suffix and claim the
	// complement of existing coverage.
	i := n
	for i > 0 && l.segs[i-1].to > from {
		i--
	}
	f := from
	for f < to {
		if i < len(l.segs) && l.segs[i].from < to {
			s := l.segs[i]
			if f < s.from {
				l.insert(i, blameSeg{from: f, to: s.from, culprit: culprit, cause: cause})
				i++
			}
			if s.to > f {
				f = s.to
			}
			i++
		} else {
			l.insert(i, blameSeg{from: f, to: to, culprit: culprit, cause: cause})
			return
		}
	}
}

func (l *bankLedger) insert(i int, s blameSeg) {
	l.segs = append(l.segs, blameSeg{})
	copy(l.segs[i+1:], l.segs[i:])
	l.segs[i] = s
}

// serve handles one serve event: decompose the waiter's delay (demand
// reads only — the core-visible wait TotalReadWait accounts), claim the
// service interval, record the bank's new opener, and advance the
// pruning watermark.
func (r *Recorder) serve(c *chanAcc, ev rh.Event) {
	led := &c.banks[ev.Bank]
	if !ev.Injected && !ev.IsWrite && ev.Core >= 0 {
		r.decompose(ev, c.openers[ev.Bank], led)
	}
	cause, culprit := causeServeDemand, ev.Core
	if ev.Injected {
		cause, culprit = causeServeInject, -2
	}
	if ev.Extra > 0 { // the serve activated its row
		c.openers[ev.Bank] = int16(culprit)
	}
	led.prune(c.floor)
	led.claim(ev.At, ev.Until, cause, int16(culprit))
	c.floor = max(c.floor, ev.MinEnqueued)
}

// decompose splits one demand read's [Enqueued, Until) wait into blame
// buckets: ledger overlaps for the queue part, throttle/sched for the
// uncovered gaps, intrinsic+extra for the service part, a conflict's
// extra charged to opener. The pieces tile the wait exactly, which is
// what makes the grand-total conservation against TotalReadWait an
// equality.
func (r *Recorder) decompose(ev rh.Event, opener int16, led *bankLedger) {
	v := ev.Core
	// Queue part [Enqueued, At): ledger segments, gaps in between.
	i := 0
	for i < len(led.segs) && led.segs[i].to <= ev.Enqueued {
		i++
	}
	cur := ev.Enqueued
	for ; i < len(led.segs) && cur < ev.At; i++ {
		s := led.segs[i]
		if s.from >= ev.At {
			break
		}
		if s.from > cur {
			r.gap(v, ev.ThrottleFree, cur, s.from)
			cur = s.from
		}
		end := s.to
		if end > ev.At {
			end = ev.At
		}
		if end > cur {
			r.addAttr(v, s.cause.bucket(), cur, end)
			if s.cause.matrixEligible() && s.culprit >= 0 {
				r.cores[v].matrix[s.culprit] += uint64(end - cur)
			}
			cur = end
		}
	}
	if cur < ev.At {
		r.gap(v, ev.ThrottleFree, cur, ev.At)
	}
	// Service part [At, Until): the extra (conflict/closed
	// activate cost) first — the precharge+activate physically precede
	// the column access — then the intrinsic floor.
	if ev.Extra > 0 {
		b := bucketIntrinsic // closed-bank activate: nobody's fault
		if ev.Conflict {
			b = bucketConflict
			if opener == -2 {
				b = bucketInject
			} else if opener >= 0 {
				r.cores[v].matrix[opener] += uint64(ev.Extra)
			}
		}
		r.addAttr(v, b, ev.At, ev.At+ev.Extra)
	}
	r.addAttr(v, bucketIntrinsic, ev.At+ev.Extra, ev.Until)
}

// gap attributes an uncovered queue gap: the throttle-gated prefix to
// Throttle, the rest to Sched.
func (r *Recorder) gap(v int, throttleFree, from, to dram.Cycle) {
	if throttleFree > from {
		te := throttleFree
		if te > to {
			te = to
		}
		r.addAttr(v, bucketThrottle, from, te)
		from = te
	}
	if from < to {
		r.addAttr(v, bucketSched, from, to)
	}
}

// addAttr charges [from, to) to core v's bucket b, and to its windows
// on windowed runs.
func (r *Recorder) addAttr(v, b int, from, to dram.Cycle) {
	if from >= to {
		return
	}
	c := &r.cores[v]
	c.blame[b] += uint64(to - from)
	if r.nWin > 0 {
		r.fold(c.blameWin[b], from, to, 1)
	}
}
