package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dapper/internal/dram"
)

// Descriptor is the deterministic identity of one simulation run: every
// knob that can change a sim.Result. Two runs with equal descriptors
// are interchangeable, which is what makes the content-addressed cache
// and cross-figure deduplication sound. Descriptors are derived from
// exp.Run (Run.Desc), the same value its sim.Config is built from, so a
// new run input reaches the key where it reaches the simulation.
type Descriptor struct {
	// Tracker is the canonical tracker name ("none" for the insecure
	// baseline); Mode the mitigation command flavor.
	Tracker string `json:"tracker"`
	Mode    string `json:"mode"`
	NRH     uint32 `json:"nrh"`

	Workload string `json:"workload"`
	// Attack is the companion core's pattern ("none" = idle companion);
	// Benign4 selects four homogeneous copies instead of 3+companion.
	Attack  string `json:"attack"`
	Benign4 bool   `json:"benign4"`
	// AttackParams is the canonical encoding of the parametric attack
	// point (attack.Params.Canonical()) when Attack is "parametric",
	// empty otherwise. Folding the full param vector into the key keeps
	// adversary-search re-evaluations cache-served while preventing
	// nearby search points from aliasing each other's results.
	AttackParams string `json:"attack_params,omitempty"`

	Geometry dram.Geometry `json:"geometry"`
	// Timing tags the timing set ("ddr5" = the Table I defaults).
	Timing   string `json:"timing"`
	LLCBytes int    `json:"llc_bytes"` // 0 = default 8MB

	Warmup  dram.Cycle `json:"warmup"`
	Measure dram.Cycle `json:"measure"`
	Seed    uint64     `json:"seed"`

	// Engine is the simulation loop strategy ("event" or "cycle"). Both
	// engines produce identical Results by contract, but keying on the
	// engine keeps cached records honest about how they were produced
	// (and lets an engine-comparison run bypass the other engine's
	// cache entries).
	Engine string `json:"engine,omitempty"`

	// Audit tags runs carrying the shadow security oracle ("" = not
	// audited). Audited Results embed the oracle's report, so they must
	// never alias an unaudited cache entry (and vice versa); the tag also
	// versions the oracle so its evolution invalidates stale reports.
	Audit string `json:"audit,omitempty"`

	// Telemetry tags runs collecting the in-sim windowed series: the
	// canonical window encoding ("w<cycles>", e.g. "w20000" for a 5µs
	// window) when sim.Config.TelemetryWindow is set, empty otherwise.
	// Telemetry-on Results embed a Series, so they must never alias a
	// telemetry-off cache entry — and two different window widths must
	// not alias each other.
	Telemetry string `json:"telemetry,omitempty"`

	// Attr tags runs collecting slowdown attribution ("v1" when
	// sim.Config.Attribution is set, empty otherwise). Attribution-on
	// Results embed the CPI stacks and blame matrix, so they must never
	// alias an attribution-off cache entry; the tag also versions the
	// attribution schema so its evolution invalidates stale records.
	Attr string `json:"attr,omitempty"`
}

// TelemetryTag returns the canonical Descriptor.Telemetry encoding for
// a telemetry window width ("" when telemetry is off).
func TelemetryTag(window dram.Cycle) string {
	if window <= 0 {
		return ""
	}
	return fmt.Sprintf("w%d", window)
}

// AttrTag returns the canonical Descriptor.Attr encoding for the
// attribution switch ("" when attribution is off).
func AttrTag(on bool) string {
	if !on {
		return ""
	}
	return "v1"
}

// Key returns the content address: a hex SHA-256 over a canonical
// field-ordered encoding. Stable across processes and Go versions.
func (d Descriptor) Key() string {
	h := sha256.New()
	g := d.Geometry
	// The empty "mix=" segment and "|extra=" suffix are retired fields'
	// slots: keeping them keeps every existing key, and so every warm
	// cache, valid.
	fmt.Fprintf(h,
		"tracker=%s|mode=%s|nrh=%d|workload=%s|attack=%s|aparams=%s|benign4=%t|"+
			"geo=%d.%d.%d.%d.%d.%d.%d|timing=%s|llc=%d|warmup=%d|measure=%d|seed=%d|engine=%s|audit=%s|mix=|telemetry=%s|attr=%s|extra=",
		d.Tracker, d.Mode, d.NRH, d.Workload, d.Attack, d.AttackParams, d.Benign4,
		g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup, g.RowsPerBank,
		g.RowBytes, g.LineBytes,
		d.Timing, d.LLCBytes, d.Warmup, d.Measure, d.Seed, d.Engine, d.Audit, d.Telemetry, d.Attr)
	return hex.EncodeToString(h.Sum(nil))
}

// String returns a short human-readable label for logs and errors.
func (d Descriptor) String() string {
	return fmt.Sprintf("%s/%s nrh=%d %s attack=%s", d.Tracker, d.Mode,
		d.NRH, d.Workload, d.Attack)
}
