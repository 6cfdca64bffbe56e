package exp

import (
	"strings"
	"testing"
)

func TestTableAlignsColumns(t *testing.T) {
	tb := &Table{ID: "t", Title: "x", Header: []string{"short", "a"}}
	tb.AddRow("longer-cell", "1")
	lines := strings.Split(tb.String(), "\n")
	// Header and row start at the same column.
	var hdr, row string
	for _, l := range lines {
		if strings.Contains(l, "short") {
			hdr = l
		}
		if strings.Contains(l, "longer-cell") {
			row = l
		}
	}
	if hdr == "" || row == "" {
		t.Fatalf("render:\n%s", tb.String())
	}
	if strings.Index(hdr, "a") <= strings.Index(hdr, "short") {
		t.Fatal("columns not ordered")
	}
}

func TestTableHandlesExtraCells(t *testing.T) {
	tb := &Table{ID: "t", Title: "x", Header: []string{"a"}}
	tb.AddRow("1", "overflow")
	s := tb.String()
	if !strings.Contains(s, "overflow") {
		t.Fatal("extra cells must still render")
	}
}

func TestPctAndNormFormatting(t *testing.T) {
	if pct(0.1234) != "12.3%" {
		t.Fatalf("pct = %s", pct(0.1234))
	}
	if norm(0.98765) != "0.988" {
		t.Fatalf("norm = %s", norm(0.98765))
	}
}

// TestBaselinePairing: every point of a sweep figure pairs with a
// baseline at the sweep's first threshold, so a fig12 point at NRH 2000
// normalizes against the same baseline run as its NRH 125 sibling. The
// baseline keeps the attacker exactly when the figure normalizes
// against the same attacker (fig12), and idles the companion otherwise
// (fig4).
func TestBaselinePairing(t *testing.T) {
	p := Quick() // NRHSweep {125, 500, 2000}
	for _, c := range []struct {
		id         string
		declare    func(Profile) (figure, error)
		keepAttack bool
	}{{"fig12", fig12, true}, {"fig4", fig4, false}} {
		f, err := c.declare(p)
		if err != nil {
			t.Fatal(err)
		}
		first := map[string]Run{} // row label + workload -> the NRH 125 point's baseline
		checked := 0
		for _, row := range f.rows {
			for _, cl := range row {
				for _, pt := range cl.points {
					want := pt.run
					want.Tracker, want.NRH = "none", p.NRHSweep[0]
					if !c.keepAttack {
						want.Attack = AttackPoint{}
					}
					if pt.base != want {
						t.Fatalf("%s: %s pairs with %s, want %s", c.id, pt.run.Desc(), pt.base.Desc(), want.Desc())
					}
					k := row[0].text + "/" + pt.run.Workload
					switch pt.run.NRH {
					case p.NRHSweep[0]:
						first[k] = pt.base
					case 2000:
						if b, ok := first[k]; !ok || b.Desc().Key() != pt.base.Desc().Key() {
							t.Fatalf("%s: %s at NRH 2000 pairs with %s, not its NRH %d sibling's baseline",
								c.id, k, pt.base.Desc(), p.NRHSweep[0])
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s has no NRH 2000 point", c.id)
		}
	}
}
