// Package workloads defines the 57-application workload suite the paper
// evaluates (SPEC2006, SPEC2017, TPC, Hadoop, MediaBench, YCSB) as
// synthetic trace generators. Real instruction traces are proprietary;
// each workload here is parameterised by the properties that drive every
// experiment in the paper — memory intensity (accesses per kilo
// instruction), footprint, hot-set size, streaming vs. random mix, and
// write fraction — chosen per workload to span the same spectrum the
// paper's Figure 3 shows (429.mcf and 510.parest as the most
// memory-intensive outliers, SPEC integer codes as the cache-resident
// tail).
package workloads

import (
	"fmt"

	"dapper/internal/cpu"
)

// MB is one mebibyte.
const MB = 1 << 20

// Suite names match the paper's grouping.
const (
	SPEC2006   = "SPEC2K6"
	SPEC2017   = "SPEC2K17"
	TPC        = "TPC"
	Hadoop     = "Hadoop"
	MediaBench = "MediaBench"
	YCSB       = "YCSB"
)

// Workload describes one synthetic application.
type Workload struct {
	Name  string
	Suite string

	// AccessPKI is the number of post-L2 memory accesses (LLC lookups)
	// per kilo-instruction: the memory intensity knob.
	AccessPKI float64
	// FootprintMB is the total bytes the workload touches.
	FootprintMB int
	// HotMB is the hot working set most accesses concentrate in.
	HotMB int
	// HotFrac / StreamFrac / cold: mixture weights for hot random
	// accesses, sequential streaming, and cold random accesses
	// (cold = 1 - HotFrac - StreamFrac).
	HotFrac    float64
	StreamFrac float64
	// WriteFrac is the store fraction of memory accesses.
	WriteFrac float64
	// RBMPKI is the nominal row-buffer misses per kilo-instruction used
	// for the paper's ">= 2 RBMPKI" grouping (Figures 3, 10, 11).
	RBMPKI float64
}

// MemoryIntensive reports whether the workload belongs in the paper's
// ">= 2 row-buffer misses per kilo instruction" group.
func (w Workload) MemoryIntensive() bool { return w.RBMPKI >= 2 }

// All returns the 57 workloads in suite order.
func All() []Workload { return append([]Workload(nil), table...) }

// ByName returns the workload with the given name.
func ByName(name string) (Workload, error) {
	for _, w := range table {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Suites returns the suite names in paper order.
func Suites() []string {
	return []string{SPEC2006, SPEC2017, TPC, Hadoop, MediaBench, YCSB}
}

// BySuite returns the workloads of ws in one suite, in ws's order.
func BySuite(ws []Workload, suite string) []Workload {
	var out []Workload
	for _, w := range ws {
		if w.Suite == suite {
			out = append(out, w)
		}
	}
	return out
}

// Representative returns a small, diverse subset used by the quick
// experiment profile: the extremes the paper calls out plus coverage of
// every suite and intensity class.
func Representative() []Workload {
	names := []string{
		"429.mcf", "462.libquantum", "470.lbm", "403.gcc",
		"510.parest", "519.lbm", "520.omnetpp", "541.leela",
		"tpcc64", "wc_map0", "h264_encode", "ycsb_a",
	}
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		w, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

// table holds the 57 definitions: 23 SPEC2006, 18 SPEC2017, 4 TPC,
// 3 Hadoop, 3 MediaBench, 6 YCSB.
var table = []Workload{
	// --- SPEC2006 (23) ---
	{Name: "400.perlbench", Suite: SPEC2006, AccessPKI: 4, FootprintMB: 64, HotMB: 1, HotFrac: 0.92, StreamFrac: 0.04, WriteFrac: 0.30, RBMPKI: 0.2},
	{Name: "401.bzip2", Suite: SPEC2006, AccessPKI: 10, FootprintMB: 96, HotMB: 1, HotFrac: 0.80, StreamFrac: 0.12, WriteFrac: 0.28, RBMPKI: 1.0},
	{Name: "403.gcc", Suite: SPEC2006, AccessPKI: 8, FootprintMB: 128, HotMB: 1, HotFrac: 0.85, StreamFrac: 0.08, WriteFrac: 0.32, RBMPKI: 0.7},
	{Name: "410.bwaves", Suite: SPEC2006, AccessPKI: 28, FootprintMB: 512, HotMB: 1, HotFrac: 0.30, StreamFrac: 0.60, WriteFrac: 0.20, RBMPKI: 3.5},
	{Name: "429.mcf", Suite: SPEC2006, AccessPKI: 90, FootprintMB: 768, HotMB: 1, HotFrac: 0.25, StreamFrac: 0.05, WriteFrac: 0.18, RBMPKI: 28},
	{Name: "433.milc", Suite: SPEC2006, AccessPKI: 34, FootprintMB: 512, HotMB: 1, HotFrac: 0.30, StreamFrac: 0.40, WriteFrac: 0.25, RBMPKI: 8},
	{Name: "434.zeusmp", Suite: SPEC2006, AccessPKI: 14, FootprintMB: 256, HotMB: 1, HotFrac: 0.55, StreamFrac: 0.35, WriteFrac: 0.25, RBMPKI: 2.2},
	{Name: "435.gromacs", Suite: SPEC2006, AccessPKI: 6, FootprintMB: 64, HotMB: 1, HotFrac: 0.88, StreamFrac: 0.08, WriteFrac: 0.25, RBMPKI: 0.4},
	{Name: "436.cactusADM", Suite: SPEC2006, AccessPKI: 12, FootprintMB: 384, HotMB: 1, HotFrac: 0.55, StreamFrac: 0.38, WriteFrac: 0.28, RBMPKI: 2.0},
	{Name: "437.leslie3d", Suite: SPEC2006, AccessPKI: 26, FootprintMB: 384, HotMB: 1, HotFrac: 0.35, StreamFrac: 0.50, WriteFrac: 0.25, RBMPKI: 5},
	{Name: "444.namd", Suite: SPEC2006, AccessPKI: 5, FootprintMB: 64, HotMB: 1, HotFrac: 0.90, StreamFrac: 0.06, WriteFrac: 0.20, RBMPKI: 0.3},
	{Name: "445.gobmk", Suite: SPEC2006, AccessPKI: 5, FootprintMB: 48, HotMB: 1, HotFrac: 0.90, StreamFrac: 0.04, WriteFrac: 0.28, RBMPKI: 0.3},
	{Name: "447.dealII", Suite: SPEC2006, AccessPKI: 8, FootprintMB: 128, HotMB: 1, HotFrac: 0.82, StreamFrac: 0.10, WriteFrac: 0.25, RBMPKI: 0.8},
	{Name: "450.soplex", Suite: SPEC2006, AccessPKI: 38, FootprintMB: 512, HotMB: 1, HotFrac: 0.30, StreamFrac: 0.25, WriteFrac: 0.20, RBMPKI: 10},
	{Name: "456.hmmer", Suite: SPEC2006, AccessPKI: 6, FootprintMB: 48, HotMB: 1, HotFrac: 0.90, StreamFrac: 0.06, WriteFrac: 0.30, RBMPKI: 0.3},
	{Name: "458.sjeng", Suite: SPEC2006, AccessPKI: 4, FootprintMB: 180, HotMB: 1, HotFrac: 0.88, StreamFrac: 0.02, WriteFrac: 0.25, RBMPKI: 0.4},
	{Name: "459.GemsFDTD", Suite: SPEC2006, AccessPKI: 32, FootprintMB: 640, HotMB: 1, HotFrac: 0.30, StreamFrac: 0.50, WriteFrac: 0.28, RBMPKI: 7},
	{Name: "462.libquantum", Suite: SPEC2006, AccessPKI: 30, FootprintMB: 96, HotMB: 1, HotFrac: 0.10, StreamFrac: 0.85, WriteFrac: 0.25, RBMPKI: 4},
	{Name: "464.h264ref", Suite: SPEC2006, AccessPKI: 6, FootprintMB: 64, HotMB: 1, HotFrac: 0.88, StreamFrac: 0.08, WriteFrac: 0.30, RBMPKI: 0.4},
	{Name: "470.lbm", Suite: SPEC2006, AccessPKI: 36, FootprintMB: 400, HotMB: 1, HotFrac: 0.12, StreamFrac: 0.80, WriteFrac: 0.45, RBMPKI: 5},
	{Name: "471.omnetpp", Suite: SPEC2006, AccessPKI: 28, FootprintMB: 180, HotMB: 1, HotFrac: 0.40, StreamFrac: 0.05, WriteFrac: 0.30, RBMPKI: 9},
	{Name: "473.astar", Suite: SPEC2006, AccessPKI: 16, FootprintMB: 256, HotMB: 1, HotFrac: 0.55, StreamFrac: 0.05, WriteFrac: 0.25, RBMPKI: 3.5},
	{Name: "482.sphinx3", Suite: SPEC2006, AccessPKI: 18, FootprintMB: 180, HotMB: 1, HotFrac: 0.50, StreamFrac: 0.30, WriteFrac: 0.15, RBMPKI: 3},
	// --- SPEC2017 (18) ---
	{Name: "500.perlbench", Suite: SPEC2017, AccessPKI: 4, FootprintMB: 96, HotMB: 1, HotFrac: 0.92, StreamFrac: 0.04, WriteFrac: 0.30, RBMPKI: 0.2},
	{Name: "502.gcc", Suite: SPEC2017, AccessPKI: 10, FootprintMB: 256, HotMB: 1, HotFrac: 0.80, StreamFrac: 0.10, WriteFrac: 0.32, RBMPKI: 1.2},
	{Name: "505.mcf", Suite: SPEC2017, AccessPKI: 60, FootprintMB: 640, HotMB: 1, HotFrac: 0.30, StreamFrac: 0.08, WriteFrac: 0.20, RBMPKI: 16},
	{Name: "507.cactuBSSN", Suite: SPEC2017, AccessPKI: 20, FootprintMB: 512, HotMB: 1, HotFrac: 0.45, StreamFrac: 0.42, WriteFrac: 0.28, RBMPKI: 3.5},
	{Name: "508.namd", Suite: SPEC2017, AccessPKI: 5, FootprintMB: 64, HotMB: 1, HotFrac: 0.90, StreamFrac: 0.06, WriteFrac: 0.20, RBMPKI: 0.3},
	{Name: "510.parest", Suite: SPEC2017, AccessPKI: 48, FootprintMB: 640, HotMB: 1, HotFrac: 0.28, StreamFrac: 0.30, WriteFrac: 0.22, RBMPKI: 12},
	{Name: "511.povray", Suite: SPEC2017, AccessPKI: 3, FootprintMB: 32, HotMB: 1, HotFrac: 0.94, StreamFrac: 0.03, WriteFrac: 0.25, RBMPKI: 0.1},
	{Name: "519.lbm", Suite: SPEC2017, AccessPKI: 40, FootprintMB: 440, HotMB: 1, HotFrac: 0.10, StreamFrac: 0.82, WriteFrac: 0.45, RBMPKI: 6},
	{Name: "520.omnetpp", Suite: SPEC2017, AccessPKI: 26, FootprintMB: 256, HotMB: 1, HotFrac: 0.42, StreamFrac: 0.05, WriteFrac: 0.30, RBMPKI: 8},
	{Name: "523.xalancbmk", Suite: SPEC2017, AccessPKI: 16, FootprintMB: 256, HotMB: 1, HotFrac: 0.62, StreamFrac: 0.10, WriteFrac: 0.28, RBMPKI: 2.5},
	{Name: "525.x264", Suite: SPEC2017, AccessPKI: 6, FootprintMB: 96, HotMB: 1, HotFrac: 0.85, StreamFrac: 0.12, WriteFrac: 0.30, RBMPKI: 0.5},
	{Name: "531.deepsjeng", Suite: SPEC2017, AccessPKI: 5, FootprintMB: 512, HotMB: 1, HotFrac: 0.85, StreamFrac: 0.02, WriteFrac: 0.28, RBMPKI: 0.6},
	{Name: "538.imagick", Suite: SPEC2017, AccessPKI: 4, FootprintMB: 96, HotMB: 1, HotFrac: 0.90, StreamFrac: 0.08, WriteFrac: 0.30, RBMPKI: 0.2},
	{Name: "541.leela", Suite: SPEC2017, AccessPKI: 4, FootprintMB: 48, HotMB: 1, HotFrac: 0.92, StreamFrac: 0.02, WriteFrac: 0.25, RBMPKI: 0.2},
	{Name: "544.nab", Suite: SPEC2017, AccessPKI: 8, FootprintMB: 128, HotMB: 1, HotFrac: 0.80, StreamFrac: 0.12, WriteFrac: 0.25, RBMPKI: 1.0},
	{Name: "549.fotonik3d", Suite: SPEC2017, AccessPKI: 30, FootprintMB: 512, HotMB: 1, HotFrac: 0.30, StreamFrac: 0.55, WriteFrac: 0.25, RBMPKI: 6},
	{Name: "554.roms", Suite: SPEC2017, AccessPKI: 24, FootprintMB: 512, HotMB: 1, HotFrac: 0.38, StreamFrac: 0.48, WriteFrac: 0.25, RBMPKI: 4.5},
	{Name: "557.xz", Suite: SPEC2017, AccessPKI: 12, FootprintMB: 256, HotMB: 1, HotFrac: 0.68, StreamFrac: 0.12, WriteFrac: 0.30, RBMPKI: 2.2},
	// --- TPC (4) ---
	{Name: "tpcc64", Suite: TPC, AccessPKI: 22, FootprintMB: 512, HotMB: 1, HotFrac: 0.50, StreamFrac: 0.05, WriteFrac: 0.35, RBMPKI: 5},
	{Name: "tpch2", Suite: TPC, AccessPKI: 26, FootprintMB: 640, HotMB: 1, HotFrac: 0.40, StreamFrac: 0.35, WriteFrac: 0.10, RBMPKI: 5.5},
	{Name: "tpch6", Suite: TPC, AccessPKI: 30, FootprintMB: 640, HotMB: 1, HotFrac: 0.30, StreamFrac: 0.50, WriteFrac: 0.10, RBMPKI: 6},
	{Name: "tpch17", Suite: TPC, AccessPKI: 24, FootprintMB: 512, HotMB: 1, HotFrac: 0.45, StreamFrac: 0.25, WriteFrac: 0.12, RBMPKI: 4.5},
	// --- Hadoop (3) ---
	{Name: "wc_8443", Suite: Hadoop, AccessPKI: 14, FootprintMB: 384, HotMB: 1, HotFrac: 0.60, StreamFrac: 0.25, WriteFrac: 0.30, RBMPKI: 2.5},
	{Name: "wc_map0", Suite: Hadoop, AccessPKI: 12, FootprintMB: 384, HotMB: 1, HotFrac: 0.62, StreamFrac: 0.25, WriteFrac: 0.30, RBMPKI: 2.2},
	{Name: "grep_map0", Suite: Hadoop, AccessPKI: 16, FootprintMB: 448, HotMB: 1, HotFrac: 0.45, StreamFrac: 0.45, WriteFrac: 0.15, RBMPKI: 3},
	// --- MediaBench (3) ---
	{Name: "h264_encode", Suite: MediaBench, AccessPKI: 7, FootprintMB: 96, HotMB: 1, HotFrac: 0.80, StreamFrac: 0.15, WriteFrac: 0.35, RBMPKI: 0.8},
	{Name: "h264_decode", Suite: MediaBench, AccessPKI: 6, FootprintMB: 96, HotMB: 1, HotFrac: 0.82, StreamFrac: 0.14, WriteFrac: 0.35, RBMPKI: 0.6},
	{Name: "jp2_decode", Suite: MediaBench, AccessPKI: 10, FootprintMB: 128, HotMB: 1, HotFrac: 0.72, StreamFrac: 0.20, WriteFrac: 0.30, RBMPKI: 1.5},
	// --- YCSB (6) ---
	{Name: "ycsb_a", Suite: YCSB, AccessPKI: 20, FootprintMB: 512, HotMB: 1, HotFrac: 0.52, StreamFrac: 0.04, WriteFrac: 0.40, RBMPKI: 4.5},
	{Name: "ycsb_b", Suite: YCSB, AccessPKI: 18, FootprintMB: 512, HotMB: 1, HotFrac: 0.55, StreamFrac: 0.04, WriteFrac: 0.15, RBMPKI: 4},
	{Name: "ycsb_c", Suite: YCSB, AccessPKI: 16, FootprintMB: 512, HotMB: 1, HotFrac: 0.58, StreamFrac: 0.04, WriteFrac: 0.02, RBMPKI: 3.5},
	{Name: "ycsb_d", Suite: YCSB, AccessPKI: 16, FootprintMB: 512, HotMB: 1, HotFrac: 0.60, StreamFrac: 0.08, WriteFrac: 0.10, RBMPKI: 3},
	{Name: "ycsb_e", Suite: YCSB, AccessPKI: 24, FootprintMB: 640, HotMB: 1, HotFrac: 0.42, StreamFrac: 0.30, WriteFrac: 0.08, RBMPKI: 5.5},
	{Name: "ycsb_f", Suite: YCSB, AccessPKI: 20, FootprintMB: 512, HotMB: 1, HotFrac: 0.50, StreamFrac: 0.04, WriteFrac: 0.30, RBMPKI: 4.5},
}

// Trace is the generative trace for one workload instance.
type Trace struct {
	w        Workload
	base     uint64 // address-space offset for this core
	space    uint64 // addressable bytes (clamped to footprint)
	hotBytes uint64
	rng      uint64
	streamAt uint64
	bubbles  int // bubbles between accesses (fixed-point remainder)
	bubAcc   float64
	bubPer   float64
}

// NewTrace builds a trace for workload w, placing its footprint at base
// within the system address space and seeding its generator with seed.
// limit clamps the footprint (so per-core regions never overlap).
func NewTrace(w Workload, base uint64, limit uint64, seed uint64) *Trace {
	space := uint64(w.FootprintMB) * MB
	if limit > 0 && space > limit {
		space = limit
	}
	hot := uint64(w.HotMB) * MB
	if hot > space {
		hot = space
	}
	if seed == 0 {
		seed = 1
	}
	// Stagger the streaming cursor by seed so homogeneous copies don't
	// walk their regions in lockstep (synchronized row transitions
	// create convoy artifacts with large per-core variance).
	start := (seed * 0x9E3779B97F4A7C15) % space &^ 63
	return &Trace{
		w:        w,
		base:     base,
		space:    space,
		hotBytes: hot,
		rng:      seed,
		streamAt: start,
		bubPer:   1000 / w.AccessPKI,
	}
}

func (t *Trace) xorshift() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// randFloat returns a float in [0,1).
func (t *Trace) randFloat() float64 {
	return float64(t.xorshift()>>11) / (1 << 53)
}

// Next implements cpu.Trace.
func (t *Trace) Next() cpu.Record {
	// Spread bubbles so AccessPKI holds on average even when it does
	// not divide 1000.
	t.bubAcc += t.bubPer
	bubbles := int(t.bubAcc)
	t.bubAcc -= float64(bubbles)

	var addr uint64
	p := t.randFloat()
	switch {
	case p < t.w.HotFrac:
		addr = t.base + t.xorshift()%t.hotBytes
	case p < t.w.HotFrac+t.w.StreamFrac:
		t.streamAt += 64
		if t.streamAt >= t.space {
			t.streamAt = 0
		}
		addr = t.base + t.streamAt
	default:
		addr = t.base + t.xorshift()%t.space
	}
	addr &^= 63 // line-align

	return cpu.Record{
		Bubbles: bubbles,
		Addr:    addr,
		IsWrite: t.randFloat() < t.w.WriteFrac,
	}
}
