// Package adversary searches the parametric attack space
// (attack.Params) for worst-case performance attacks against a chosen
// RowHammer tracker: the stress test behind the paper's
// attack-resilience claim. The search is black-box — it only observes
// the benign cores' slowdown — and deterministic for a given seed and
// budget, so resilience reports are byte-for-byte reproducible.
//
// The pipeline: seeded random sampling over a projected search space
// (plus the seven named attack kinds as seed points), successive
// halving over shortened measurement horizons, and coordinate
// hill-climbing on the survivors at the full horizon. Every candidate
// evaluation is a harness.Job, so the pool parallelizes, deduplicates
// and caches them; cache keys carry the full param vector
// (harness.Descriptor.AttackParams), making re-visited points free.
package adversary

import (
	"fmt"
	"math"

	"dapper/internal/attack"
	"dapper/internal/dram"
)

// Dim is one searched dimension of the projected attack space.
type Dim struct {
	Name     string
	Min, Max float64
	Log      bool    // sample log-uniformly
	Int      bool    // quantize to integers
	Step     float64 // hill-climb step: factor if Log, offset otherwise
}

// Vector is a point in the projected space, one value per Dim.
type Vector []float64

// Equal reports element-wise equality (vectors are pre-quantized by
// Clamp, so float comparison is exact).
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Space is the projection of attack.Params the optimizer explores: the
// knobs that move tracker state machines (working-set size, fan-out,
// hot/cold mix, pacing, cacheability, on/off phase period), bounded by
// the geometry under attack. The full Params space is larger (group
// interleaves, explicit row bases); named-kind seed points reach it
// via attack.PointFor even though hill-climbing cannot.
type Space struct {
	Geo  dram.Geometry
	Dims []Dim
}

// Dimension indices into Space.Dims / Vector.
const (
	dimRows = iota
	dimBanks
	dimHold
	dimHotFrac
	dimHotRows
	dimBubbles
	dimCacheFrac
	dimPeriodLog2
	numDims
)

// NewSpace builds the search space for a geometry.
func NewSpace(geo dram.Geometry) Space {
	banksTotal := float64(geo.Channels * geo.Ranks * geo.BankGroups * geo.BanksPerGroup)
	return Space{Geo: geo, Dims: []Dim{
		dimRows:    {Name: "rows", Min: 1, Max: float64(geo.RowsPerBank), Log: true, Int: true, Step: 4},
		dimBanks:   {Name: "banks", Min: 1, Max: banksTotal, Log: true, Int: true, Step: 2},
		dimHold:    {Name: "hold", Min: 1, Max: banksTotal, Log: true, Int: true, Step: 4},
		dimHotFrac: {Name: "hot_frac", Min: 0, Max: 1, Step: 0.25},
		dimHotRows: {Name: "hot_rows", Min: 1, Max: 64, Log: true, Int: true, Step: 4},
		// bubbles is searched as 1+bubbles so the log scale reaches 0.
		dimBubbles:   {Name: "bubbles1", Min: 1, Max: 4097, Log: true, Int: true, Step: 8},
		dimCacheFrac: {Name: "cache_frac", Min: 0, Max: 1, Step: 0.25},
		// period = 1<<(v+7) accesses when v > 0; v = 0 is a static attack.
		dimPeriodLog2: {Name: "period_log2", Min: 0, Max: 16, Int: true, Step: 2},
	}}
}

// Clamp bounds and quantizes a vector: ints round to whole numbers,
// fractions round to 1e-4, everything clips to [Min, Max]. Clamped
// vectors are the canonical representatives that feed cache keys, so
// Clamp is idempotent by construction.
func (s Space) Clamp(v Vector) Vector {
	out := make(Vector, len(s.Dims))
	for i, d := range s.Dims {
		x := v[i]
		if math.IsNaN(x) {
			x = d.Min
		}
		if x < d.Min {
			x = d.Min
		}
		if x > d.Max {
			x = d.Max
		}
		if d.Int {
			x = math.Round(x)
		} else {
			x = math.Round(x*1e4) / 1e4
		}
		out[i] = x
	}
	return out
}

// Sample draws one log/linear-uniform vector from the space.
func (s Space) Sample(rng *rng) Vector {
	v := make(Vector, len(s.Dims))
	for i, d := range s.Dims {
		u := rng.float()
		if d.Log {
			v[i] = math.Exp(math.Log(d.Min) + u*(math.Log(d.Max)-math.Log(d.Min)))
		} else {
			v[i] = d.Min + u*(d.Max-d.Min)
		}
	}
	return s.Clamp(v)
}

// Neighbor returns the clamped vector one hill-climb step along dim
// (up or down). Integer dims always move by at least 1 so quantization
// cannot swallow a proposal.
func (s Space) Neighbor(v Vector, dim int, up bool) Vector {
	d := s.Dims[dim]
	out := append(Vector(nil), v...)
	x := v[dim]
	if d.Log {
		if up {
			x *= d.Step
		} else {
			x /= d.Step
		}
	} else {
		if up {
			x += d.Step
		} else {
			x -= d.Step
		}
	}
	if d.Int && math.Round(x) == math.Round(v[dim]) {
		if up {
			x = math.Round(v[dim]) + 1
		} else {
			x = math.Round(v[dim]) - 1
		}
	}
	out[dim] = x
	return s.Clamp(out)
}

// Params maps a (clamped) vector to its attack-space point. Periodic
// points alternate the searched steady pattern with a near-idle quiet
// phase — the on/off shape that dodges throttling- and reset-based
// trackers.
func (s Space) Params(v Vector) attack.Params {
	p := attack.Params{Steady: attack.Pattern{
		Rows:    int(v[dimRows]),
		Banks:   int(v[dimBanks]),
		RowHold: int(v[dimHold]),
		HotFrac: v[dimHotFrac],
		HotRows: int(v[dimHotRows]),
		// The Refresh kind's pair: far apart, away from bank edges.
		HotBase:       7,
		HotStride:     996,
		Bubbles:       int(v[dimBubbles]) - 1,
		CacheableFrac: v[dimCacheFrac],
	}}
	if plog := int(v[dimPeriodLog2]); plog > 0 {
		p.Period = 1 << (uint(plog) + 7)
		p.Warm = attack.Pattern{CacheableFrac: 1, StreamBytes: 64, Bubbles: 4096}
	}
	return p
}

// rng wraps attack.XorShift64 (deterministic across platforms and Go
// versions, which the byte-identical-report guarantee rests on) behind
// a seeded state.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 1
	}
	// splitmix-style scramble so small seeds don't start in xorshift's
	// low-entropy region.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{s: z}
}

// float returns a float in [0,1).
func (r *rng) float() float64 { return attack.RandFloat64(&r.s) }

func (s Space) String() string {
	return fmt.Sprintf("adversary space: %d dims over %s", len(s.Dims), s.Geo)
}
