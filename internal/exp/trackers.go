package exp

import (
	"fmt"
	"sort"

	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/trackers/abacus"
	"dapper/internal/trackers/blockhammer"
	"dapper/internal/trackers/comet"
	"dapper/internal/trackers/hydra"
	"dapper/internal/trackers/para"
	"dapper/internal/trackers/prac"
	"dapper/internal/trackers/start"
)

// trackerDef is one KnownTrackers entry.
type trackerDef struct {
	// name is the display name attack.ForTracker keys on ("Hydra";
	// "none" for the insecure baseline).
	name string
	// modal trackers issue the requested mitigation mode; the rest run,
	// and key, at VRR-BR1 whatever mode a sweep asks for.
	modal bool
	// check rejects a configuration the constructor would refuse, so a
	// bad Run fails before it simulates (nil: nothing to check).
	check func(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) error
	// build constructs channel ch's tracker (nil: the insecure baseline).
	build func(ch int, geo dram.Geometry, nrh uint32, mode rh.MitigationMode) rh.Tracker
}

// startLLCBytes is the LLC START reserves its counter region from: Table
// I's 8 MB, whatever LLC the run simulates.
const startLLCBytes = 8 << 20

// trackerDefs maps flag-friendly tracker ids to their definitions.
var trackerDefs = map[string]trackerDef{
	"none": {name: "none"},
	"hydra": {name: "Hydra", build: func(ch int, geo dram.Geometry, nrh uint32, _ rh.MitigationMode) rh.Tracker {
		return hydra.New(ch, geo, nrh)
	}},
	"start": {name: "START", build: func(ch int, geo dram.Geometry, nrh uint32, _ rh.MitigationMode) rh.Tracker {
		return start.New(ch, geo, nrh, startLLCBytes)
	}},
	"abacus": {name: "ABACUS", build: func(ch int, geo dram.Geometry, nrh uint32, _ rh.MitigationMode) rh.Tracker {
		return abacus.New(ch, geo, nrh)
	}},
	"comet": {name: "CoMeT", build: func(ch int, geo dram.Geometry, nrh uint32, _ rh.MitigationMode) rh.Tracker {
		return comet.New(ch, geo, nrh)
	}},
	"blockhammer": {name: "BlockHammer", build: func(ch int, geo dram.Geometry, nrh uint32, _ rh.MitigationMode) rh.Tracker {
		return blockhammer.New(ch, geo, nrh)
	}},
	"para": {name: "PARA", modal: true, build: func(ch int, geo dram.Geometry, nrh uint32, mode rh.MitigationMode) rh.Tracker {
		return para.NewPARA(ch, geo, nrh, mode, 11)
	}},
	"pride": {name: "PrIDE", modal: true, build: func(ch int, geo dram.Geometry, nrh uint32, mode rh.MitigationMode) rh.Tracker {
		return para.NewPrIDE(ch, geo, nrh, mode, 13)
	}},
	"prac": {name: "PRAC", build: func(ch int, geo dram.Geometry, nrh uint32, _ rh.MitigationMode) rh.Tracker {
		return prac.New(ch, geo, nrh)
	}},
	"dapper-s": {name: "DAPPER-S", modal: true, check: checkDapper,
		build: func(ch int, geo dram.Geometry, nrh uint32, mode rh.MitigationMode) rh.Tracker {
			return mustTracker(core.NewDapperS(ch, core.Config{Geometry: geo, NRH: nrh, Mode: mode}))
		}},
	"dapper-h": {name: "DAPPER-H", modal: true, check: checkDapperH,
		build: func(ch int, geo dram.Geometry, nrh uint32, mode rh.MitigationMode) rh.Tracker {
			return mustTracker(core.NewDapperH(ch, core.Config{Geometry: geo, NRH: nrh, Mode: mode}))
		}},
}

// checkDapper validates the DAPPER-S configuration a run would build.
func checkDapper(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) error {
	return core.Config{Geometry: geo, NRH: nrh, Mode: mode}.Validate()
}

// checkDapperH validates the DAPPER-H configuration a run would build.
func checkDapperH(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) error {
	return core.Config{Geometry: geo, NRH: nrh, Mode: mode}.ValidateH()
}

// mustTracker unwraps a constructor whose configuration checkDapper or
// checkDapperH already accepted.
func mustTracker(t rh.Tracker, err error) rh.Tracker {
	if err != nil {
		panic(err)
	}
	return t
}

// KnownTrackers returns the tracker ids in sorted order.
func KnownTrackers() []string {
	out := make([]string, 0, len(trackerDefs))
	for id := range trackerDefs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// lookupTracker resolves a tracker id.
func lookupTracker(id string) (trackerDef, error) {
	def, ok := trackerDefs[id]
	if !ok {
		return def, fmt.Errorf("exp: unknown tracker %q (known: %v)", id, KnownTrackers())
	}
	return def, nil
}

// TrackerName resolves a tracker id to the display name
// attack.ForTracker keys on ("Hydra", "START", ...; "none" for the
// insecure baseline id).
func TrackerName(id string) (string, error) {
	def, err := lookupTracker(id)
	return def.name, err
}
