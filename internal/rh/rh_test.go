package rh

import (
	"testing"
	"testing/quick"
)

func TestVictimsMiddle(t *testing.T) {
	v := Victims(100, 1, 1000, nil)
	if len(v) != 2 || v[0] != 99 || v[1] != 101 {
		t.Fatalf("victims = %v", v)
	}
}

func TestVictimsBlastRadius2(t *testing.T) {
	v := Victims(100, 2, 1000, nil)
	want := map[uint32]bool{98: true, 99: true, 101: true, 102: true}
	if len(v) != 4 {
		t.Fatalf("victims = %v", v)
	}
	for _, r := range v {
		if !want[r] {
			t.Fatalf("unexpected victim %d", r)
		}
	}
}

func TestVictimsEdges(t *testing.T) {
	if v := Victims(0, 1, 1000, nil); len(v) != 1 || v[0] != 1 {
		t.Fatalf("victims at row 0 = %v", v)
	}
	if v := Victims(999, 1, 1000, nil); len(v) != 1 || v[0] != 998 {
		t.Fatalf("victims at last row = %v", v)
	}
	if v := Victims(0, 2, 2, nil); len(v) != 1 || v[0] != 1 {
		t.Fatalf("victims in 2-row bank = %v", v)
	}
}

func TestVictimsAppendsToBuf(t *testing.T) {
	buf := []uint32{7}
	v := Victims(10, 1, 100, buf)
	if len(v) != 3 || v[0] != 7 {
		t.Fatalf("append semantics broken: %v", v)
	}
}

// Property: victims are always within the bank and never include the
// aggressor itself.
func TestVictimsInRangeProperty(t *testing.T) {
	f := func(row uint32, br uint8) bool {
		rows := uint32(65536)
		r := row % rows
		radius := int(br%2) + 1
		for _, v := range Victims(r, radius, rows, nil) {
			if v >= rows || v == r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMitigationModeMapping(t *testing.T) {
	if VRR1.ActionKind() != RefreshVictims || VRR2.ActionKind() != RefreshVictims {
		t.Fatal("VRR modes must map to RefreshVictims")
	}
	if RFMsb.ActionKind() != RefreshVictimsRFMsb {
		t.Fatal("RFMsb mapping")
	}
	if DRFMsb.ActionKind() != RefreshVictimsDRFMsb {
		t.Fatal("DRFMsb mapping")
	}
}

func TestMitigationModeBlastRadius(t *testing.T) {
	if VRR1.BlastRadius() != 1 || RFMsb.BlastRadius() != 1 {
		t.Fatal("BR1 modes")
	}
	if VRR2.BlastRadius() != 2 || DRFMsb.BlastRadius() != 2 {
		t.Fatal("BR2 modes")
	}
}

func TestMitigationModeString(t *testing.T) {
	for m, want := range map[MitigationMode]string{
		VRR1: "VRR-BR1", VRR2: "VRR-BR2", RFMsb: "RFMsb", DRFMsb: "DRFMsb",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestNopTracker(t *testing.T) {
	n := NewNop()
	if n.Name() != "none" {
		t.Fatal("name")
	}
	buf := n.OnActivate(0, locAt(0, 0, 0, 0, 5), nil)
	if len(buf) != 0 {
		t.Fatal("nop must not act")
	}
	buf = n.Tick(0, buf)
	if len(buf) != 0 {
		t.Fatal("nop tick must not act")
	}
	if n.Stats().Activations != 1 {
		t.Fatalf("activations = %d", n.Stats().Activations)
	}
}

// countSink counts events without keeping them.
type countSink struct{ n int }

func (s *countSink) Event(Event) { s.n++ }

// TestTeeEventDoesNotAllocate holds the fan-out on every audited or
// telemetry-carrying run's per-ACT path to zero allocations.
func TestTeeEventDoesNotAllocate(t *testing.T) {
	a, b := &countSink{}, &countSink{}
	s := Tee(a, nil, b)
	e := Event{Kind: EvACT, At: 7, Loc: locAt(0, 1, 2, 3, 42)}
	if n := testing.AllocsPerRun(100, func() { s.Event(e) }); n != 0 {
		t.Errorf("tee.Event allocates %v times per call", n)
	}
	if a.n == 0 || a.n != b.n {
		t.Errorf("sinks saw %d and %d events, want equal and nonzero", a.n, b.n)
	}
}
