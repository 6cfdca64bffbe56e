package attack

import (
	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
)

// CaptureResult reports a Monte-Carlo Mapping-Capturing run.
type CaptureResult struct {
	Captured   bool
	Trials     int    // probe iterations spent
	ACTs       uint64 // activations spent
	TargetLoc  dram.Loc
	PartnerLoc dram.Loc // the row found to share the target's group
}

// MappingCaptureS runs the §V-D Mapping-Capturing attack against a live
// DAPPER-S tracker: hammer a target row to NM-1, then activate probe
// rows until a mitigative refresh fires — the probe that triggers it
// shares the target's row group. maxACTs bounds the experiment. The
// attacker only observes mitigation actions (the timing side channel the
// paper assumes), never tracker internals.
func MappingCaptureS(d *core.DapperS, geo dram.Geometry, maxACTs uint64) CaptureResult {
	target := dram.Loc{Rank: 0, BankGroup: 0, Bank: 0, Row: 100}
	nm := d.Config().NM()
	res := CaptureResult{TargetLoc: target}

	var buf []rh.Action
	now := dram.Cycle(0)
	// Phase 1: bring the target's group to NM-1.
	for i := uint32(0); i < nm-1; i++ {
		buf = d.OnActivate(now, target, buf[:0])
		now++
		res.ACTs++
		if res.ACTs >= maxACTs {
			return res
		}
	}
	// Phase 2: probe rows in a different bank until a mitigation fires.
	probe := dram.Loc{Rank: 0, BankGroup: 1, Bank: 0}
	for row := uint32(0); ; row++ {
		if row >= geo.RowsPerBank {
			return res // exhausted the bank without capture
		}
		probe.Row = row
		buf = d.OnActivate(now, probe, buf[:0])
		now++
		res.ACTs++
		res.Trials++
		if len(buf) > 0 {
			// Mitigation observed: this probe shares the target group.
			res.Captured = true
			res.PartnerLoc = probe
			return res
		}
		if res.ACTs >= maxACTs {
			return res
		}
	}
}

// MappingCaptureH runs the analogous probe against DAPPER-H using the
// paper's trial protocol (§VI-C): hammer the target to NM-2 (counting
// from a known-zero state), guess two random rows, then issue one check
// activation. A mitigation observed during the guesses or the check —
// when the attacker's own contribution is still below NM — proves the
// guesses completed both of the target's groups (success probability
// per trial p = (1-(1-1/N)^2)^2, Equation 6). After a failed trial the
// attacker hammers the target until its self-mitigation fires, resetting
// the counters to a known state for the next trial.
func MappingCaptureH(d *core.DapperH, geo dram.Geometry, seed uint64, maxACTs uint64) CaptureResult {
	target := dram.Loc{Rank: 0, BankGroup: 0, Bank: 0, Row: 100}
	nm := d.Config().NM()
	res := CaptureResult{TargetLoc: target}
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	var buf []rh.Action
	now := dram.Cycle(0)
	act := func(l dram.Loc) bool {
		buf = d.OnActivate(now, l, buf[:0])
		now++
		res.ACTs++
		return len(buf) > 0
	}

	win := dram.DDR5().TREFW // DAPPER-H's rekey period
	for res.ACTs < maxACTs {
		// Hammer NM-2 times, per the paper's protocol. (Reproduction
		// note: under the exact Figure-8 bit-vector semantics the first
		// same-bank touch feeds only table 2, so after k ACTs the
		// counters sit at (k-1, k); an attacker hammering NM-1 times
		// would let the check activation self-complete table 2 and
		// need only ONE correct guess for table 1, improving the
		// per-trial odds from Equation 6's (2/N)^2 to ~2/N. We model
		// the published protocol, not the stronger variant.)
		for i := uint32(0); i < nm-2 && res.ACTs < maxACTs; i++ {
			act(target)
		}
		if res.ACTs >= maxACTs {
			break
		}
		// Two guesses, then the check. A mitigation during these three
		// activations can only mean the guesses completed both groups
		// (the self-contribution is NM-3/NM-2 plus one check).
		g1 := target
		g1.Row = uint32(next()) % geo.RowsPerBank
		g2 := target
		g2.Row = uint32(next()) % geo.RowsPerBank
		captured := act(g1) || act(g2) || act(target)
		res.Trials++
		if captured {
			res.Captured = true
			res.PartnerLoc = g1
			return res
		}
		// Failed trial. Equations (6)-(7) treat trials as independent
		// samples of a fresh mapping; DAPPER-H provides exactly that by
		// rekeying every tREFW. Jump to the next window boundary so the
		// tracker resets and rekeys before the next trial.
		now = (now/win + 1) * win
		d.Tick(now, buf[:0])
	}
	return res
}
