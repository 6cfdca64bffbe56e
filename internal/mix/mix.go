// Package mix is the heterogeneous multi-programmed scenario engine:
// where sim.BenignTraces/AttackScenario express only "n copies of one
// workload, at most one attacker on the last core", a mix.Spec assigns
// an arbitrary workload — or an attacker — to every core.
//
// A Spec is a per-core slot list. Benign slots name a workload from the
// 57-entry table (internal/workloads) and receive a private, disjoint
// slice of the physical address space; attacker slots name an
// attack.Kind (or an explicit parametric point) and deliberately range
// over the whole row space, because hammering rows the victim owns is
// the attack. Specs are generated reproducibly (Generate: seeded
// sampling stratified by the paper's >= 2-RBMPKI memory-intensity
// grouping, arbitrary multi-attacker placement) and carry a canonical
// encoding plus a short content-derived ID, so harness cache keys and
// report rows identify a mix deterministically.
//
// The package also scores mixes the way the multi-programmed RowHammer
// literature does (BlockHammer's evaluation, mix-based slowdown
// studies): per-core speedups against per-core isolated baselines,
// aggregated into weighted speedup, harmonic speedup and fairness
// (Compute), and renders sweep results as deterministic JSONL/CSV
// reports (WriteReportJSONL/WriteReportCSV, `dapper mix`).
package mix

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"dapper/internal/attack"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/workloads"
)

// Slot is one core's assignment: exactly one of Workload (a benign
// workload name from the table) or Attack (an attack.Kind name; "none"
// is an idle companion, "parametric" consults Params) must be set.
// Params stays zero on every other slot, so it never hides outside the
// canonical encoding.
type Slot struct {
	Workload string        `json:"workload,omitempty"`
	Attack   string        `json:"attack,omitempty"`
	Params   attack.Params `json:"params,omitempty"`
}

// Benign reports whether the slot runs a workload (attackers and idle
// companions are not benign).
func (s Slot) Benign() bool { return s.Workload != "" }

// label renders the slot for canonical encodings and report rows:
// benign slots are the workload name, attacker slots are "!kind" (with
// the canonical param vector for parametric points).
func (s Slot) label() string {
	if s.Benign() {
		return s.Workload
	}
	if s.Attack == attack.Parametric.String() {
		return "!" + s.Attack + "(" + s.Params.Canonical() + ")"
	}
	return "!" + s.Attack
}

// Spec assigns a slot to each core: the complete description of one
// heterogeneous multi-programmed scenario.
type Spec struct {
	Slots []Slot `json:"slots"`
}

// Validate checks every slot names exactly one known workload or attack
// kind, and that the spec drives at least one core.
func (sp Spec) Validate() error {
	if len(sp.Slots) == 0 {
		return fmt.Errorf("mix: spec has no slots")
	}
	for i, s := range sp.Slots {
		switch {
		case s.Benign() && s.Attack != "":
			return fmt.Errorf("mix: slot %d sets both workload %q and attack %q", i, s.Workload, s.Attack)
		case s.Benign():
			if _, err := workloads.ByName(s.Workload); err != nil {
				return fmt.Errorf("mix: slot %d: %w", i, err)
			}
			if s.Params != (attack.Params{}) {
				return fmt.Errorf("mix: slot %d: workload %q takes no attack params", i, s.Workload)
			}
		default:
			k, err := attack.ParseKind(s.Attack)
			if err != nil {
				return fmt.Errorf("mix: slot %d: %w", i, err)
			}
			if k != attack.Parametric && s.Params != (attack.Params{}) {
				return fmt.Errorf("mix: slot %d: attack %s takes no params", i, k)
			}
			if err := s.Params.Validate(); err != nil {
				return fmt.Errorf("mix: slot %d: %w", i, err)
			}
		}
	}
	return nil
}

// Canonical returns the deterministic field-ordered encoding of the
// spec — the value harness.Descriptor's Mix tag carries, so no two
// distinct mixes can alias a cached result.
func (sp Spec) Canonical() string {
	parts := make([]string, len(sp.Slots))
	for i, s := range sp.Slots {
		parts[i] = fmt.Sprintf("c%d=%s", i, s.label())
	}
	return strings.Join(parts, "|")
}

// ID returns the short content-derived mix identifier ("mx-<hex12>"):
// stable across processes, unique per canonical encoding, and compact
// enough for report rows and file names.
func (sp Spec) ID() string {
	sum := sha256.Sum256([]byte(sp.Canonical()))
	return "mx-" + hex.EncodeToString(sum[:6])
}

// Label renders the human-readable slot list ("429.mcf+ycsb_a+!refresh");
// parametric attacker slots are abbreviated to "!parametric" (the full
// point lives in Canonical).
func (sp Spec) Label() string {
	parts := make([]string, len(sp.Slots))
	for i, s := range sp.Slots {
		if !s.Benign() && s.Attack == attack.Parametric.String() {
			parts[i] = "!" + s.Attack
			continue
		}
		parts[i] = s.label()
	}
	return strings.Join(parts, "+")
}

// BenignCores returns the core indices holding benign workloads, in
// ascending order — the cores every mix metric is computed over.
func (sp Spec) BenignCores() []int {
	var cores []int
	for i, s := range sp.Slots {
		if s.Benign() {
			cores = append(cores, i)
		}
	}
	return cores
}

// AttackerCores returns the core indices holding attackers (idle "none"
// companions included), in ascending order.
func (sp Spec) AttackerCores() []int {
	var cores []int
	for i, s := range sp.Slots {
		if !s.Benign() {
			cores = append(cores, i)
		}
	}
	return cores
}

// Attackers counts the non-idle attacker slots.
func (sp Spec) Attackers() int {
	n := 0
	for _, s := range sp.Slots {
		if !s.Benign() && s.Attack != attack.None.String() {
			n++
		}
	}
	return n
}

// Intensive counts the benign slots in the paper's >= 2-RBMPKI
// memory-intensity group.
func (sp Spec) Intensive() int {
	n := 0
	for _, s := range sp.Slots {
		if !s.Benign() {
			continue
		}
		if w, err := workloads.ByName(s.Workload); err == nil && w.MemoryIntensive() {
			n++
		}
	}
	return n
}

// WithSlot returns a copy of the spec with one more slot appended — how
// the adversary search grafts its candidate attacker onto a benign
// background mix.
func (sp Spec) WithSlot(s Slot) Spec {
	slots := make([]Slot, 0, len(sp.Slots)+1)
	slots = append(slots, sp.Slots...)
	return Spec{Slots: append(slots, s)}
}

// Range is one core's private slice of the physical address space.
type Range struct {
	Base  uint64
	Limit uint64 // bytes; the slice is [Base, Base+Limit)
}

// Slices partitions the address space into one equal, row-aligned,
// disjoint range per slot. Benign traces are confined to their range;
// attacker slots own one too (so the partition is total) even though
// attack generators intentionally address the whole space.
func (sp Spec) Slices(geo dram.Geometry) []Range {
	n := uint64(len(sp.Slots))
	if n == 0 {
		return nil
	}
	slice := geo.TotalBytes() / n
	if rb := uint64(geo.RowBytes); rb > 0 {
		slice -= slice % rb // row-align so no two cores share a DRAM row
	}
	out := make([]Range, n)
	for i := range out {
		out[i] = Range{Base: uint64(i) * slice, Limit: slice}
	}
	return out
}

// slotSeed derives core i's trace seed from the run seed, matching
// sim.BenignTraces' staggering convention so homogeneous copies do not
// walk their regions in lockstep.
func slotSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9E37 + 1 }

// Traces builds the per-core trace set: benign slots get their workload
// confined to their address slice, attacker slots get their attack
// generator (nrh sizes NRH-dependent warm-ups, seed drives stochastic
// mixture draws).
func (sp Spec) Traces(geo dram.Geometry, nrh uint32, seed uint64) ([]cpu.Trace, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	slices := sp.Slices(geo)
	traces := make([]cpu.Trace, len(sp.Slots))
	for i, s := range sp.Slots {
		if s.Benign() {
			w, err := workloads.ByName(s.Workload)
			if err != nil {
				return nil, err
			}
			traces[i] = workloads.NewTrace(w, slices[i].Base, slices[i].Limit, slotSeed(seed, i))
			continue
		}
		k, err := attack.ParseKind(s.Attack)
		if err != nil {
			return nil, err
		}
		tr, err := attack.NewTrace(attack.Config{
			Geometry: geo, NRH: nrh, Kind: k, Params: s.Params,
			Seed: slotSeed(seed, i),
		})
		if err != nil {
			return nil, err
		}
		traces[i] = tr
	}
	return traces, nil
}

// IsolatedTrace builds core i's trace exactly as Traces places it —
// same slice, same seed — for the per-core isolated baseline run (the
// workload alone on the machine, so the shared-run/isolated-run
// instruction streams are identical and the speedup isolates
// contention). Attacker slots have no isolated baseline.
func (sp Spec) IsolatedTrace(geo dram.Geometry, seed uint64, core int) (cpu.Trace, error) {
	if core < 0 || core >= len(sp.Slots) {
		return nil, fmt.Errorf("mix: core %d out of range (%d slots)", core, len(sp.Slots))
	}
	s := sp.Slots[core]
	if !s.Benign() {
		return nil, fmt.Errorf("mix: core %d holds attacker %q, not a workload", core, s.Attack)
	}
	w, err := workloads.ByName(s.Workload)
	if err != nil {
		return nil, err
	}
	slices := sp.Slices(geo)
	return workloads.NewTrace(w, slices[core].Base, slices[core].Limit, slotSeed(seed, core)), nil
}
