package attack

import (
	"fmt"
	"math"

	"dapper/internal/cpu"
	"dapper/internal/dram"
)

// Pattern is one phase of a parametric attack: a deterministic access
// generator spanning the design space the named Kinds sample.
// Zero values mean "default" (documented per field), so the zero
// Pattern is a single-row-per-bank open-loop hammer.
//
// The generator interleaves three access classes per step k:
//
//	cacheable stream  (probability CacheableFrac): a linear 64B-stride
//	                  walk over StreamBytes — the LLC-polluting class
//	                  (CacheThrash is this with fraction 1).
//	hot hammer        (probability HotFrac of the rest): non-cacheable
//	                  ACTs round-robining HotRows rows starting at
//	                  HotBase, spaced HotStride (the Refresh attack is
//	                  two alternating rows).
//	cold walk         (the remainder): non-cacheable ACTs walking a
//	                  Rows-row working set, interleaved over Groups
//	                  groups spaced GroupSpan apart with RowStride
//	                  steps inside a group — the structure-thrashing
//	                  class (StreamingSweep, DistinctRows, RATThrash,
//	                  HydraConflict's phases are all points here).
//
// Banks/Ranks bound the bank fan-out: consecutive accesses rotate over
// the first Banks (channel, bank group, bank, rank) combinations of the
// first Ranks ranks, so tRRD — not tRC — limits the activation rate.
// The row cursor advances every RowHold accesses (default: one full
// bank rotation, i.e. a bank-major sweep), and Bubbles compute
// instructions pace every access.
type Pattern struct {
	// Row working set (cold walk).
	Rows      int    // distinct rows walked (0 = 1)
	Groups    int    // interleave factor (0 = 1)
	GroupSpan uint32 // row-ID distance between group bases (0 = contiguous)
	RowStride uint32 // row-ID step within a group (0 = 1)
	RowBase   uint32 // first row ID
	RowHold   int    // accesses per row-cursor step (0 = Banks, bank-major)

	// Bank/rank fan-out.
	Banks int // distinct banks rotated (0 = all)
	Ranks int // ranks the rotation may reach (0 = all)

	// Hot/cold mix.
	HotFrac   float64 // fraction of accesses hammering the hot set (clamped to [0,1])
	HotRows   int     // hot-set size (0 = 1)
	HotBase   uint32  // first hot row
	HotStride uint32  // distance between hot rows

	// Pacing and cacheability.
	Bubbles       int     // compute bubbles between accesses
	CacheableFrac float64 // fraction of accesses streamed cacheably (clamped to [0,1])
	StreamBytes   uint64  // cacheable stream span (0 = 64MB; clamped to capacity)
}

// canon returns the pattern's canonical field-ordered encoding, the
// building block of Params.Canonical.
func (p Pattern) canon() string {
	return fmt.Sprintf("r%d.g%d.gs%d.rs%d.rb%d.rh%d.b%d.rk%d.hf%g.hr%d.hb%d.hs%d.bu%d.cf%g.sb%d",
		p.Rows, p.Groups, p.GroupSpan, p.RowStride, p.RowBase, p.RowHold,
		p.Banks, p.Ranks, p.HotFrac, p.HotRows, p.HotBase, p.HotStride,
		p.Bubbles, p.CacheableFrac, p.StreamBytes)
}

// Params is a point in the parametric attack space: a steady pattern,
// an optional warm pattern, and the phase schedule between them.
// internal/adversary searches (a projection of) this space for
// worst-case performance attacks.
type Params struct {
	// Steady is the main pattern.
	Steady Pattern `json:"steady"`
	// Warm is emitted for the first WarmAccesses accesses (one-shot
	// structure warm-up, e.g. pushing Hydra groups into per-row mode)
	// and, when Period > 0, for every other Period-access phase
	// afterwards (on/off attacks that dodge throttling trackers).
	Warm         Pattern `json:"warm,omitempty"`
	WarmAccesses uint64  `json:"warm_accesses,omitempty"`
	Period       uint64  `json:"period,omitempty"`
}

// Canonical returns a deterministic field-ordered encoding of the
// point, used verbatim in harness cache keys (harness.Descriptor's
// AttackParams field) so no two distinct points can alias a cached
// result.
func (p Params) Canonical() string {
	return fmt.Sprintf("s(%s)|w(%s)|wa%d|p%d",
		p.Steady.canon(), p.Warm.canon(), p.WarmAccesses, p.Period)
}

// Validate rejects non-finite mixture fractions and negative structural
// fields. Out-of-range but finite values are clamped by normalization
// instead, keeping the whole search space feasible.
func (p Params) Validate() error {
	for i, pat := range []Pattern{p.Steady, p.Warm} {
		name := [...]string{"steady", "warm"}[i]
		for _, f := range []float64{pat.HotFrac, pat.CacheableFrac} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("attack: %s pattern has non-finite fraction %v", name, f)
			}
		}
		if pat.Rows < 0 || pat.Groups < 0 || pat.RowHold < 0 || pat.Banks < 0 ||
			pat.Ranks < 0 || pat.HotRows < 0 || pat.Bubbles < 0 {
			return fmt.Errorf("attack: %s pattern has negative field: %+v", name, pat)
		}
	}
	return nil
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// pattern is a Pattern normalized against a geometry: defaults filled,
// everything clamped so emitted locations are always in bounds.
type pattern struct {
	geo dram.Geometry // full geometry (address composition)

	banks, hold        uint64
	groups, perGroup   uint64
	groupSpan, stride  uint32
	rowBase            uint32
	hotFrac            float64
	hotRows            uint64
	hotBase, hotStride uint32
	bubbles            int
	cacheFrac          float64
	streamSpan         uint64

	// Per-phase cursors, advanced once per access. bank indexes the
	// rotation over the first banks (channel, bank group, bank, rank)
	// combinations, channel fastest, so consecutive activations land in
	// different banks (tRRD-limited, not tRC-limited); at is its
	// location. Every hold accesses the row cursors step: hotIdx over
	// the hot set, group and then within over the cold working set;
	// hotRow and coldRow are the rows they select.
	bank            uint64
	at              dram.Loc
	held            uint64
	hotIdx          uint64
	group, within   uint64
	hotRow, coldRow uint32
	streamAt        uint64
}

func (p Pattern) normalize(g dram.Geometry) pattern {
	ranks := g.Ranks
	if p.Ranks > 0 && p.Ranks < ranks {
		ranks = p.Ranks
	}
	total := uint64(g.Channels * ranks * g.BankGroups * g.BanksPerGroup)
	banks := uint64(p.Banks)
	if banks == 0 || banks > total {
		banks = total
	}
	hold := uint64(p.RowHold)
	if hold == 0 {
		hold = banks
	}
	rows := uint64(p.Rows)
	if rows == 0 {
		rows = 1
	}
	groups := uint64(p.Groups)
	if groups == 0 {
		groups = 1
	}
	if groups > rows {
		groups = rows
	}
	perGroup := rows / groups
	if perGroup == 0 {
		perGroup = 1
	}
	stride := p.RowStride
	if stride == 0 {
		stride = 1
	}
	span := p.GroupSpan
	if span == 0 {
		span = uint32(perGroup) * stride
	}
	hotRows := uint64(p.HotRows)
	if hotRows == 0 {
		hotRows = 1
	}
	sspan := p.StreamBytes
	if sspan == 0 {
		sspan = 64 << 20
	}
	if t := g.TotalBytes(); sspan > t {
		sspan = t
	}
	sspan &^= 63
	if sspan < 64 {
		sspan = 64
	}
	bub := p.Bubbles
	if bub < 0 {
		bub = 0
	}
	n := pattern{
		geo:   g,
		banks: banks, hold: hold,
		groups: groups, perGroup: perGroup, groupSpan: span, stride: stride,
		rowBase: p.RowBase,
		hotFrac: clamp01(p.HotFrac), hotRows: hotRows,
		hotBase: p.HotBase, hotStride: p.HotStride,
		bubbles: bub, cacheFrac: clamp01(p.CacheableFrac), streamSpan: sspan,
	}
	n.selectRows()
	return n
}

// selectRows sets hotRow and coldRow from the row cursors.
func (p *pattern) selectRows() {
	p.hotRow = (p.hotBase + uint32(p.hotIdx)*p.hotStride) % p.geo.RowsPerBank
	p.coldRow = (p.rowBase + uint32(p.group)*p.groupSpan + uint32(p.within)*p.stride) % p.geo.RowsPerBank
}

// advance steps the cursors past one access. The rotation wraps to
// bank 0 after banks accesses; banks never exceeds the rank-limited
// bank count, so the rank digit never carries out.
func (p *pattern) advance() {
	a := &p.at
	if p.bank++; p.bank == p.banks {
		p.bank, *a = 0, dram.Loc{}
	} else if a.Channel++; a.Channel == p.geo.Channels {
		a.Channel = 0
		if a.BankGroup++; a.BankGroup == p.geo.BankGroups {
			a.BankGroup = 0
			if a.Bank++; a.Bank == p.geo.BanksPerGroup {
				a.Bank = 0
				a.Rank++
			}
		}
	}
	if p.held++; p.held < p.hold {
		return
	}
	p.held = 0
	if p.hotIdx++; p.hotIdx == p.hotRows {
		p.hotIdx = 0
	}
	if p.group++; p.group == p.groups {
		p.group = 0
		if p.within++; p.within == p.perGroup {
			p.within = 0
		}
	}
	p.selectRows()
}

// next emits one record. rng is consumed only for fractional mixture
// draws, so fully deterministic points (fractions in {0,1}) emit
// identical streams for every seed.
func (p *pattern) next(rng *uint64) cpu.Record {
	l, hotRow, coldRow := p.at, p.hotRow, p.coldRow
	p.advance()
	if p.cacheFrac > 0 && (p.cacheFrac >= 1 || RandFloat64(rng) < p.cacheFrac) {
		addr := p.streamAt
		p.streamAt += 64
		if p.streamAt >= p.streamSpan {
			p.streamAt = 0
		}
		return cpu.Record{Addr: addr, Bubbles: p.bubbles}
	}
	if p.hotFrac > 0 && (p.hotFrac >= 1 || RandFloat64(rng) < p.hotFrac) {
		l.Row = hotRow
	} else {
		l.Row = coldRow
	}
	return cpu.Record{Addr: p.geo.Compose(l), NonCacheable: true, Bubbles: p.bubbles}
}

// XorShift64 advances s and returns the next value of the xorshift64
// generator: the deterministic, platform-independent PRNG behind
// stochastic attack mixes and the adversary search's sampling (both
// must stay byte-reproducible across Go versions, which the stdlib
// does not promise). s must start non-zero.
func XorShift64(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

// RandFloat64 draws a uniform float in [0,1) from the generator.
func RandFloat64(s *uint64) float64 {
	return float64(XorShift64(s)>>11) / (1 << 53)
}

// parametric is the trace for a Params point: an optional one-shot
// warm phase, then the steady pattern, optionally alternating back to
// the warm pattern every Period accesses. Each phase keeps its own
// cursor, so a pattern resumes where it left off.
type parametric struct {
	steady, warm pattern
	warmLeft     uint64
	period       uint64
	phaseLeft    uint64
	inSteady     bool
	rng          uint64
}

func newParametric(g dram.Geometry, p Params, seed uint64) (*parametric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	return &parametric{
		steady:   p.Steady.normalize(g),
		warm:     p.Warm.normalize(g),
		warmLeft: p.WarmAccesses,
		period:   p.Period,
		rng:      seed,
	}, nil
}

func (t *parametric) Next() cpu.Record {
	if t.warmLeft > 0 {
		t.warmLeft--
		return t.warm.next(&t.rng)
	}
	if t.period > 0 {
		if t.phaseLeft == 0 {
			t.inSteady = !t.inSteady
			t.phaseLeft = t.period
		}
		t.phaseLeft--
		if !t.inSteady {
			return t.warm.next(&t.rng)
		}
	}
	return t.steady.next(&t.rng)
}

// refreshRowA/B are the Refresh and Hammer attacks' hammered pair (arbitrary, away
// from bank edges and from each other's blast radius).
const (
	refreshRowA = 7
	refreshRowB = 1003
)

// PointFor defines each named Kind: it returns the Params point whose
// trace NewTrace replays for kind, or ok=false for Parametric (which
// replays Config.Params) and unknown kinds. nrh sizes HydraConflict's
// warm-up. Row IDs wrap modulo the geometry's RowsPerBank like every
// parametric point's, so each kind stays in bounds on small banks
// (RATThrash's rows 1000..1383 and Refresh's row 1003 wrap below those
// row counts). testdata/kinds.sha256.golden pins each kind's stream.
func PointFor(kind Kind, g dram.Geometry, nrh uint32) (Params, bool) {
	switch kind {
	case None:
		// One cacheable line, so the stream cursor pins to address 0.
		return Params{Steady: Pattern{CacheableFrac: 1, StreamBytes: 64, Bubbles: 1 << 20}}, true
	case CacheThrash:
		// A 64MB cacheable stream.
		return Params{Steady: Pattern{CacheableFrac: 1}}, true
	case StreamingSweep:
		// Bank-major: each round touches every bank at one row before
		// the row advances.
		return Params{Steady: Pattern{Rows: int(g.RowsPerBank)}}, true
	case DistinctRows:
		// The row advances on every access, so no two consecutive ACTs
		// share a row ID (ABACUS's Misra-Gries keys).
		return Params{Steady: Pattern{Rows: int(g.RowsPerBank), RowHold: 1}}, true
	case Refresh, Hammer:
		// Two rows per bank, alternating so every access closes the
		// other row and forces an activation under the open-page
		// policy: the hammer pair of §V-D. Hammer keeps the pair on 8
		// banks, so the rotor returns to each row at the tRC limit.
		p := Params{Steady: Pattern{
			HotFrac: 1, HotRows: 2,
			HotBase: refreshRowA, HotStride: refreshRowB - refreshRowA,
		}}
		if kind == Hammer {
			p.Steady.Banks = 8
		}
		return p, true
	case RATThrash:
		// 1.5x CoMeT's 128-entry RAT of aggressor rows per channel (the
		// RAT is per channel), several per bank, so every revisit of a
		// bank lands on a different row.
		banks := 16 * g.Channels
		if max := g.Channels * g.Ranks * g.BankGroups * g.BanksPerGroup; banks > max {
			banks = max
		}
		return Params{Steady: Pattern{
			Rows: 192 * g.Channels, RowBase: 1000, RowHold: 1, Banks: banks,
		}}, true
	case HydraConflict:
		// The warm phase gives every bank NGC activations (Hydra's NGC
		// = 0.8 * NM) in each of 3 128-row groups, alternating two rows
		// of the group, which pushes those group counters into per-row
		// tracking. The steady phase then cycles every row of the
		// groups: 3 groups x 128 rows x 64 banks = 24K rows, far more
		// than the 4K-entry Row Counter Cache.
		ngc := nrh / 2 * 8 / 10
		if ngc == 0 {
			ngc = 1
		}
		total := uint64(g.Channels * g.Ranks * g.BankGroups * g.BanksPerGroup)
		return Params{
			Steady:       Pattern{Rows: 3 * 128, Groups: 3, GroupSpan: 128, RowStride: 1},
			Warm:         Pattern{Rows: 6, Groups: 3, GroupSpan: 128, RowStride: 64},
			WarmAccesses: uint64(ngc) * 3 * total,
		}, true
	}
	return Params{}, false
}
