package exp

import (
	"fmt"
	"strings"

	"dapper/internal/attack"
)

// SecurityAttack names one -attack value: a display name plus the
// attack point it drives.
type SecurityAttack struct {
	Name  string
	Point AttackPoint
}

// hammerParams is the focused double-row hammer: the Refresh
// kind's pair (rows 7/1003) concentrated on few banks so each hot row
// is re-activated at the tRC limit — the pattern that maximizes per-row
// activation counts and must produce escapes on the insecure baseline.
func hammerParams() attack.Params {
	return attack.Params{Steady: attack.Pattern{
		HotFrac: 1, HotRows: 2, HotBase: 7, HotStride: 996, Banks: 8,
	}}
}

// AuditAttacks returns the default conformance attack set: the focused
// hammer (the escape forcer), the mapping-agnostic refresh attack, and
// the streaming sweep (the structure thrasher). Together they exercise
// hot-row pressure, many-bank fan-out, and whole-row-space walks.
func AuditAttacks() []SecurityAttack {
	return []SecurityAttack{
		{Name: "hammer", Point: AttackPoint{Kind: attack.Parametric, Params: hammerParams()}},
		{Name: attack.Refresh.String(), Point: AttackPoint{Kind: attack.Refresh}},
		{Name: attack.StreamingSweep.String(), Point: AttackPoint{Kind: attack.StreamingSweep}},
	}
}

// ParseAuditAttack resolves an -attack value: "hammer" is the
// focused parametric hammer, anything else must parse as a named
// attack.Kind.
func ParseAuditAttack(name string) (SecurityAttack, error) {
	if strings.EqualFold(name, "hammer") {
		return SecurityAttack{Name: "hammer", Point: AttackPoint{Kind: attack.Parametric, Params: hammerParams()}}, nil
	}
	k, err := attack.ParseKind(name)
	if err != nil {
		return SecurityAttack{}, fmt.Errorf("exp: attack %q: %w (or \"hammer\")", name, err)
	}
	return SecurityAttack{Name: k.String(), Point: AttackPoint{Kind: k}}, nil
}
