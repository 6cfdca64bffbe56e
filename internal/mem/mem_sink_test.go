package mem

import (
	"math/rand"
	"slices"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// injectingTracker sends counter traffic on a third of activations and
// mitigates on a tenth, so injected requests land in the queue, some at
// future apply times.
type injectingTracker struct {
	fakeTracker
	rng *rand.Rand
	geo dram.Geometry
}

func (t *injectingTracker) OnActivate(_ dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	switch t.rng.Intn(10) {
	case 0, 1, 2:
		buf = append(buf, rh.Action{Kind: rh.InjectRead, Loc: bankLoc(t.geo, t.rng.Intn(t.geo.BanksPerChannel()), uint32(t.rng.Intn(8)))})
	case 3:
		buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
	}
	return buf
}

// watermarkSink checks, at every event, that the demand queue is in
// EnqueuedAt order, and at every serve that MinEnqueued equals a full
// scan of both queues without the served request.
type watermarkSink struct {
	t           *testing.T
	c           *Controller
	serves      int
	injectedMin int // serves whose watermark came from the injected queue
}

func (s *watermarkSink) Event(e rh.Event) {
	q := s.c.queue
	for i := 1; i < len(q); i++ {
		if q[i].EnqueuedAt < q[i-1].EnqueuedAt {
			s.t.Fatalf("demand queue out of EnqueuedAt order at %d: %d after %d", i, q[i].EnqueuedAt, q[i-1].EnqueuedAt)
		}
	}
	if e.Kind != rh.EvServe {
		return
	}
	s.serves++
	want, found, skipped := e.At, false, false
	fromInjected := false
	for _, r := range append(slices.Clone(q), s.c.injected...) {
		if !skipped && r.EnqueuedAt == e.Enqueued && int(r.bank) == e.Bank && r.Core == e.Core && r.Injected == e.Injected {
			skipped = true
			continue
		}
		if !found || r.EnqueuedAt < want {
			want, found, fromInjected = r.EnqueuedAt, true, r.Injected
		}
	}
	if !skipped {
		s.t.Fatalf("serve %+v not found in either queue", e)
	}
	if e.MinEnqueued != want {
		s.t.Fatalf("serve %d: MinEnqueued %d, full scan %d (%+v)", s.serves, e.MinEnqueued, want, e)
	}
	if fromInjected {
		s.injectedMin++
	}
}

// TestServeWatermarkMatchesFullScan pins the serve watermark's short
// demand-queue scan: Enqueue appends at the non-decreasing current
// cycle and removal keeps order, so the oldest other demand waiter is at
// index 0 or 1, and only the injected queue needs a full scan.
func TestServeWatermarkMatchesFullScan(t *testing.T) {
	geo := dram.Baseline()
	rng := rand.New(rand.NewSource(7))
	c := NewController(0, geo, dram.DDR5(), &injectingTracker{rng: rand.New(rand.NewSource(8)), geo: geo}, rh.VRR1)
	sink := &watermarkSink{t: t, c: c}
	c.SetSink(sink)
	for now := dram.Cycle(0); now < 40_000; now++ {
		c.Tick(now)
		for rng.Intn(4) == 0 && c.CanEnqueue() {
			loc := bankLoc(geo, rng.Intn(8), uint32(rng.Intn(4)))
			r := reqAt(geo, loc, rng.Intn(5) == 0)
			r.Core = rng.Intn(4)
			c.Enqueue(r, now)
		}
	}
	if sink.serves < 1000 || sink.injectedMin == 0 {
		t.Fatalf("%d serves, %d with an injected watermark: the drive is too thin", sink.serves, sink.injectedMin)
	}
}
