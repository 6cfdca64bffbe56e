package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dapper/internal/dram"
)

// Descriptor is the deterministic identity of one simulation run: every
// knob that can change a sim.Result. Two runs with equal descriptors
// are interchangeable, which is what makes the content-addressed cache
// and cross-figure deduplication sound. Descriptors are derived from
// exp.Run (Run.Desc), the same value its sim.Config is built from, so a
// new run input reaches the key where it reaches the simulation. The
// code that simulates is not part of the key: the cache records the
// build that wrote each entry instead.
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
	LLCBytes int           `json:"llc_bytes"` // 0 = default 8MB

	Warmup  dram.Cycle `json:"warmup"`
	Measure dram.Cycle `json:"measure"`
	Seed    uint64     `json:"seed"`

	// Engine is the simulation loop strategy ("event" or "cycle"). Both
	// engines produce identical Results by contract, but keying on the
	// engine keeps cached records honest about how they were produced
	// (and lets an engine-comparison run bypass the other engine's
	// cache entries).
	Engine string `json:"engine,omitempty"`

	// Audit marks runs carrying the shadow security oracle, whose report
	// the Result embeds; CountInjected, on audited runs only, charges
	// tracker counter traffic against its ledger.
	Audit         bool `json:"audit,omitempty"`
	CountInjected bool `json:"count_injected,omitempty"`

	// TelemetryWindow > 0 is the width of the in-sim windowed series the
	// Result embeds; Attribution marks runs whose Result embeds the CPI
	// stacks and the blame matrix.
	TelemetryWindow dram.Cycle `json:"telemetry_window,omitempty"`
	Attribution     bool       `json:"attribution,omitempty"`
}

// Key returns the content address: the hex SHA-256 of the descriptor's
// JSON line (its encoding plus a newline, as `jq -c .desc` prints a
// record's), so every field reaches the key by construction.
func (d Descriptor) Key() string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(d); err != nil {
		panic(fmt.Sprintf("harness: descriptor encode: %v", err)) // strings, integers and bools always encode
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String returns a short human-readable label for logs and errors.
func (d Descriptor) String() string {
	return fmt.Sprintf("%s/%s nrh=%d %s attack=%s", d.Tracker, d.Mode,
		d.NRH, d.Workload, d.Attack)
}
