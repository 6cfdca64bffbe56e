// Package attack implements the Performance-Attack access patterns of
// §III-B and §V-D/E as traces: the attacker core replays one of these
// while benign cores run their workloads. One generator, the
// parametric trace of a Params point, builds every Kind; PointFor
// defines each named Kind as its point. All patterns are open-loop
// memory hammers (no compute bubbles) issued non-cacheably — modeling
// the flush+activate loops real attacks use — except cache thrashing,
// whose whole point is to pollute the LLC.
//
// The package also provides Monte-Carlo Mapping-Capturing attacks
// against live DAPPER-S and DAPPER-H instances (§V-D), run by the
// sec-h experiment (`dapper experiments -exp sec-h`); the closed-form
// analysis lives in internal/analytic.
package attack

import (
	"fmt"
	"strings"

	"dapper/internal/cpu"
	"dapper/internal/dram"
)

// Kind enumerates the attack patterns.
type Kind int

const (
	// None: the fourth core idles (the insecure-baseline companion).
	None Kind = iota
	// CacheThrash streams a huge cacheable region, evicting the benign
	// cores' LLC lines (the paper's reference attack, ~40% slowdown).
	CacheThrash
	// HydraConflict warms Hydra's group counters into per-row mode and
	// then cycles more per-row-tracked rows than the Row Counter Cache
	// holds, forcing a fetch+writeback pair per activation (Figure 2a).
	HydraConflict
	// StreamingSweep activates every (bank, row) pair in turn: fills
	// START's reserved LLC region and thrashes its counter cache
	// (Figure 2b); also the Mapping-Agnostic streaming attack on
	// DAPPER-S/H (§V-E).
	StreamingSweep
	// RATThrash cycles ~1.5x CoMeT's RAT capacity of aggressor rows so
	// RAT misses stay above the early-reset trigger (Figure 2c).
	RATThrash
	// DistinctRows round-robins strictly distinct row IDs across banks,
	// pumping ABACUS's spillover counter to overflow (Figure 2d).
	DistinctRows
	// Refresh hammers a pair of rows per bank, alternating so every
	// access closes the other row, as fast as tRRD allows: the
	// Mapping-Agnostic refresh attack on DAPPER-S/H (§V-E), maximising
	// mitigative refreshes.
	Refresh
	// Hammer is the focused two-row hammer: Refresh's row pair
	// concentrated on 8 banks, so each hot row is re-activated at the
	// tRC limit. It maximizes per-row activation counts, forcing
	// escapes on the insecure baseline in the security audit.
	Hammer
	// Parametric replays an explicit Params point of the attack space
	// (Config.Params). Every other kind is the point PointFor returns
	// for it; internal/adversary searches the space for worst-case
	// performance attacks.
	Parametric
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case CacheThrash:
		return "cache-thrash"
	case HydraConflict:
		return "hydra-conflict"
	case StreamingSweep:
		return "streaming"
	case RATThrash:
		return "rat-thrash"
	case DistinctRows:
		return "distinct-rows"
	case Refresh:
		return "refresh"
	case Hammer:
		return "hammer"
	case Parametric:
		return "parametric"
	}
	return "unknown"
}

// Kinds returns every attack kind in declaration order.
func Kinds() []Kind {
	return []Kind{None, CacheThrash, HydraConflict, StreamingSweep,
		RATThrash, DistinctRows, Refresh, Hammer, Parametric}
}

// ParseKind returns the kind whose String() matches name
// (case-insensitively, matching rh.ParseMode's flag ergonomics).
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return None, fmt.Errorf("attack: unknown kind %q (known: %v)", name, Kinds())
}

// ForTracker returns the tailored attack the paper aims at each tracker
// (Figures 1/3): the attack that exploits its shared structure.
func ForTracker(trackerName string) Kind {
	switch trackerName {
	case "Hydra":
		return HydraConflict
	case "START":
		return StreamingSweep
	case "CoMeT":
		return RATThrash
	case "ABACUS":
		return DistinctRows
	case "DAPPER-S", "DAPPER-H":
		return Refresh
	default:
		return CacheThrash
	}
}

// Config parameterises attack traces.
type Config struct {
	Geometry dram.Geometry
	NRH      uint32
	Kind     Kind
	// Params is the attack-space point driven by the Parametric kind
	// (ignored by every other kind).
	Params Params
	// Seed drives the Parametric kind's stochastic mixture draws; fully
	// deterministic points ignore it. 0 means 1.
	Seed uint64
}

// NewTrace builds the trace for an attack kind: Parametric replays
// cfg.Params, every other kind the point PointFor defines for it.
func NewTrace(cfg Config) (cpu.Trace, error) {
	p := cfg.Params
	if cfg.Kind != Parametric {
		var ok bool
		if p, ok = PointFor(cfg.Kind, cfg.Geometry, cfg.NRH); !ok {
			return nil, fmt.Errorf("attack: unknown kind %d", cfg.Kind)
		}
	}
	return newParametric(cfg.Geometry, p, cfg.Seed)
}

// MustTrace is NewTrace panicking on error.
func MustTrace(cfg Config) cpu.Trace {
	t, err := NewTrace(cfg)
	if err != nil {
		panic(err)
	}
	return t
}
