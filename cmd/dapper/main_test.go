package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dapper/internal/harness"
	"dapper/internal/telemetry"
)

// invoke runs one dapper invocation in process.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadInvocationsNameTheirFlag(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"frobnicate"}, `unknown subcommand "frobnicate"`},
		{[]string{"batch", "-profile", "tiny", "-tracker", "dapper-h", "-workload", "429.mcf", "-nrh", "0"}, "-nrh"},
		{[]string{"sim", "-nrh", "0"}, "-nrh"},
		{[]string{"experiments", "-profile", "bogus"}, "-profile"},
		{[]string{"batch", "-engine", "bogus"}, "-engine"},
		{[]string{"sim", "-engine", "bogus"}, "-engine"},
		{[]string{"sim", "-tracker", "dapper-h,nosuch"}, "-tracker"},
		{[]string{"sim", "-workload", "rep"}, "-workload"},
		{[]string{"experiments", "-exp", "fig99"}, "-exp"},
		{[]string{"list", "nothing"}, "trackers, workloads, experiments"},
		{[]string{"sim", "stray"}, `unexpected argument "stray"`},
		{[]string{"sim", "-warmup", "-5", "-measure", "10", "-rows-per-bank", "2048"}, "-warmup"},
		{[]string{"sim", "-measure", "-3"}, "-measure"},
		{[]string{"sim", "-measure", "0"}, "-measure"},
		{[]string{"sim", "-warmup", "0"}, "-warmup"},
		{[]string{"sim", "-debug-addr", "127.0.0.1:-1"}, "-debug-addr"},
		{[]string{"sim", "-window", "0.0001"}, "-window"},
		{[]string{"sim", "-measure", "1e16"}, "-measure"},
		{[]string{"sim", "-measure", "+Inf"}, "-measure"},
		{[]string{"sim", "-warmup", "1e300"}, "-warmup"},
		{[]string{"sim", "-rows-per-bank", "4294967296"}, "-rows-per-bank"},
		{[]string{"sim", "-tracker", "none", "-rows-per-bank", "4294967297", "-warmup", "1", "-measure", "5"}, "-rows-per-bank"},
		{[]string{"batch", "-profile", "tiny", "-window", "-1"}, "-window"},
		{[]string{"batch", "-profile", "tiny", "-window", "1e300"}, "-window"},
		{[]string{"batch", "-profile", "tiny", "-mode", "vrr-br1,bogus"}, "-mode"},
		{[]string{"batch", "-profile", "tiny", "-count-injected"}, "-count-injected"},
		{[]string{"batch", "-profile", "tiny", "-check"}, "-check"},
		{[]string{"adversary", "-mix-cores", "3"}, "-mix-cores"},
		{[]string{"adversary", "-budget", "0"}, "-budget"},
		{[]string{"adversary", "-budget", "-5"}, "-budget"},
		{[]string{"engine-bench"}, `unknown subcommand "engine-bench"`},
		{[]string{"experiments", "-profile", "bench"}, "-profile"},
		{[]string{"mix"}, `unknown subcommand "mix"`},
		{[]string{"attack"}, `unknown subcommand "attack"`},
		{[]string{"timeline"}, `unknown subcommand "timeline"`},
		{[]string{"audit", "-profile", "tiny"}, `unknown subcommand "audit"`},
	}
	for _, tc := range cases {
		code, _, stderr := invoke(tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, stderr, tc.want)
		}
	}
}

// TestSharedFlagsShareDefaults walks every subcommand's flag set: a flag
// that several subcommands take must report the same default and help
// text in each of them.
func TestSharedFlagsShareDefaults(t *testing.T) {
	type seen struct{ cmd, def, usage string }
	first := map[string]seen{}
	users := map[string]int{}
	for _, cmd := range commands {
		c := &cli{stdout: &bytes.Buffer{}, stderr: &bytes.Buffer{}}
		c.flagSet(cmd).VisitAll(func(f *flag.Flag) {
			users[f.Name]++
			prev, ok := first[f.Name]
			if !ok {
				first[f.Name] = seen{cmd.name, f.DefValue, f.Usage}
				return
			}
			if prev.def != f.DefValue || prev.usage != f.Usage {
				t.Errorf("-%s: %s reports default %q, %s reports %q", f.Name, cmd.name, f.DefValue, prev.cmd, prev.def)
			}
		})
	}
	for _, name := range []string{"profile", "seed", "engine", "jobs", "cache", "out", "tracker", "nrh", "attack", "mode", "workload", "window"} {
		if users[name] < 2 {
			t.Errorf("-%s is taken by %d subcommands, want it shared", name, users[name])
		}
	}
	if len(users) != len(flagDefs) {
		t.Errorf("%d flags defined but %d taken by some subcommand", len(flagDefs), len(users))
	}
}

func TestSimAttackNoneRunsFourBenignCores(t *testing.T) {
	code, stdout, stderr := invoke("sim", "-tracker", "none", "-attack", "none",
		"-rows-per-bank", "1024", "-warmup", "5", "-measure", "20")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if n := strings.Count(stdout, "(benign): IPC"); n != 4 {
		t.Errorf("%d benign cores, want 4:\n%s", n, stdout)
	}
	if strings.Contains(stdout, "attacker") {
		t.Errorf("benign-only run printed an attacker core:\n%s", stdout)
	}
}

// TestTimelineReportCarriesSeriesAndBlame: one windowed sim run per
// tracker writes both report files, every "window" line carries the
// series cells and the blame buckets together, each bucket's window sum
// is the core's whole-run total on its "core" line, and the JSONL and
// the text view both carry the core-to-core blame matrix.
func TestTimelineReportCarriesSeriesAndBlame(t *testing.T) {
	out := t.TempDir()
	code, stdout, stderr := invoke("sim", "-tracker", "dapper-h,none", "-attack", "hammer", "-nrh", "125",
		"-rows-per-bank", "1024", "-warmup", "5", "-measure", "20", "-window", "5", "-check", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if n := strings.Count(stdout, "check passed"); n != 2 {
		t.Errorf("%d check verdicts, want 2:\n%s", n, stdout)
	}
	for _, id := range []string{"dapper-h", "none"} {
		txt, err := os.ReadFile(filepath.Join(out, "timeline-"+id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(txt), "blame matrix") {
			t.Errorf("%s: timeline-%s.txt prints no blame matrix", id, id)
		}
		f, err := os.Open(filepath.Join(out, "timeline-"+id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var windows, matrix int
		var sums []map[string]uint64
		var cores []telemetry.MemBlame
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line struct {
				Type  string
				Cores []map[string]float64
				Mem   telemetry.MemBlame
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			switch line.Type {
			case "window":
				windows++
				if sums == nil {
					sums = make([]map[string]uint64, len(line.Cores))
					for i := range sums {
						sums[i] = map[string]uint64{}
					}
				}
				for i, cell := range line.Cores {
					if _, ok := cell["ipc"]; !ok {
						t.Errorf("%s window %d core %d has no ipc", id, windows-1, i)
					}
					for _, name := range telemetry.BlameBucketNames {
						v, ok := cell[name]
						if !ok {
							t.Errorf("%s window %d core %d has no %s bucket", id, windows-1, i, name)
						}
						sums[i][name] += uint64(v)
					}
				}
			case "core":
				cores = append(cores, line.Mem)
			case "matrix":
				matrix++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if windows != 5 || len(cores) != len(sums) || matrix != len(sums) {
			t.Fatalf("%s: %d windows, %d core and %d matrix lines for %d cores, want 5 windows", id, windows, len(cores), matrix, len(sums))
		}
		for i, m := range cores {
			for b, v := range m.Buckets() {
				if name := telemetry.BlameBucketNames[b]; sums[i][name] != v {
					t.Errorf("%s core %d %s: windows sum %d, core line %d", id, i, name, sums[i][name], v)
				}
			}
		}
	}
}

// TestSimWithoutWindowWritesNoFile: -window is off by default, so a
// plain sim (the horizon-smoke run) writes nothing under -out.
func TestSimWithoutWindowWritesNoFile(t *testing.T) {
	out := t.TempDir()
	code, stdout, stderr := invoke("sim", "-tracker", "none", "-attack", "none",
		"-rows-per-bank", "1024", "-warmup", "5", "-measure", "20", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if strings.Contains(stdout, "wrote") {
		t.Errorf("sim without -window reported a file:\n%s", stdout)
	}
	if files, err := os.ReadDir(out); err != nil || len(files) != 0 {
		t.Errorf("sim without -window wrote %d files (%v)", len(files), err)
	}
}

// TestBatchDefaultsRunLockstep: with the shared defaults a batch sweep
// carries no telemetry, so the points that share a stream ride one
// lead in lockstep instead of each running alone. Its batch.jsonl
// holds one record per point in sweep order (tracker-major, then NRH,
// then workload).
func TestBatchDefaultsRunLockstep(t *testing.T) {
	out := t.TempDir()
	code, stdout, stderr := invoke("batch", "-profile", "tiny", "-tracker", "none,dapper-h,hydra",
		"-workload", "429.mcf", "-nrh", "500,1000", "-attack", "none", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var full, lockstep int
	i := strings.Index(stdout, "; ")
	if i < 0 {
		t.Fatalf("no run summary in:\n%s", stdout)
	}
	if _, err := fmt.Sscanf(stdout[i:], "; %d full runs, %d lockstep", &full, &lockstep); err != nil {
		t.Fatalf("run summary: %v\n%s", err, stdout)
	}
	if lockstep == 0 {
		t.Errorf("%d full runs, 0 lockstep: the default sweep ran every point alone\n%s", full, stdout)
	}

	want := []string{
		"none/500/429.mcf", "none/1000/429.mcf",
		"DAPPER-H/500/429.mcf", "DAPPER-H/1000/429.mcf",
		"Hydra/500/429.mcf", "Hydra/1000/429.mcf",
	}
	raw, err := os.ReadFile(filepath.Join(out, "batch.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var points []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var rec harness.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("batch.jsonl line %q: %v", line, err)
		}
		points = append(points, fmt.Sprintf("%s/%d/%s", rec.Desc.Tracker, rec.Desc.NRH, rec.Desc.Workload))
	}
	if !slices.Equal(points, want) {
		t.Errorf("batch.jsonl points %v, want %v", points, want)
	}
}

// TestCommandsWriteOnlyTheirFiles runs each file-writing command at
// the tiny profile into a fresh -out: each writes exactly the files it
// names, one JSONL record per artifact plus the timeline's text view.
func TestCommandsWriteOnlyTheirFiles(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"batch", "-profile", "tiny", "-tracker", "none", "-workload", "429.mcf", "-nrh", "500", "-attack", "none"},
			[]string{"batch.jsonl"}},
		{[]string{"experiments", "-exp", "tab1", "-profile", "tiny"}, []string{"results.jsonl"}},
		{[]string{"batch", "-audit", "-profile", "tiny", "-tracker", "none", "-attack", "hammer", "-nrh", "125"},
			[]string{"batch.jsonl"}},
		{[]string{"adversary", "-profile", "tiny", "-tracker", "none", "-budget", "1"}, []string{"adversary-none.jsonl"}},
		{[]string{"sim", "-tracker", "none", "-attack", "hammer", "-nrh", "125", "-rows-per-bank", "1024",
			"-warmup", "5", "-measure", "20", "-window", "5"},
			[]string{"timeline-none.jsonl", "timeline-none.txt"}},
	}
	for _, tc := range cases {
		out := t.TempDir()
		code, _, stderr := invoke(append(tc.args, "-out", out)...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
		}
		entries, err := os.ReadDir(out)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s wrote %v, want %v", tc.args[0], got, tc.want)
		}
	}
}

// TestBatchAuditCheck: under -audit -check the insecure baseline must
// escape. Four benign copies give the oracle nothing to catch, so that
// sweep fails; the focused hammer makes "none" escape while DAPPER-H
// holds, so that one passes.
func TestBatchAuditCheck(t *testing.T) {
	audit := func(attack, trackers string) (int, string, string, string) {
		t.Helper()
		out := t.TempDir()
		code, stdout, stderr := invoke("batch", "-audit", "-check", "-profile", "tiny", "-workload", "429.mcf",
			"-tracker", trackers, "-attack", attack, "-nrh", "125", "-out", out)
		raw, err := os.ReadFile(filepath.Join(out, "batch.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return code, stdout, stderr, string(raw)
	}
	code, stdout, stderr, recs := audit("none", "none")
	if code != 1 || !strings.Contains(stderr, "insecure baseline 'none' showed no escapes") {
		t.Errorf("-attack none: exit %d, stderr %q; want 1 naming the quiet baseline", code, stderr)
	}
	if !strings.Contains(stdout, "  none         secure (0 escapes)\n") {
		t.Errorf("-attack none: no verdict line for none in:\n%s", stdout)
	}
	if strings.Count(recs, "\n") != 1 || !strings.Contains(recs, `"benign4":true`) || !strings.Contains(recs, `"Audit":{`) {
		t.Errorf("-attack none: want one audited benign4 record, got:\n%s", recs)
	}

	code, stdout, stderr, recs = audit("hammer", "none,dapper-h")
	if code != 0 {
		t.Fatalf("-attack hammer: exit %d: %s", code, stderr)
	}
	for _, want := range []string{"  none         INSECURE (", "  dapper-h     secure (0 escapes)\n", "conformance check passed"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-attack hammer: stdout lacks %q:\n%s", want, stdout)
		}
	}
	if n := strings.Count(recs, `"attack":"hammer"`); n != 2 {
		t.Errorf("-attack hammer: %d hammer records, want 2:\n%s", n, recs)
	}
}

// TestBatchAuditVerdictSumsRecords: the verdict counts each unique
// point once. The insecure baseline ignores -mode, so both modes share
// one run and one batch.jsonl record; its verdict must print that
// record's escapes, not their sum over the two submitted points.
func TestBatchAuditVerdictSumsRecords(t *testing.T) {
	out := t.TempDir()
	code, stdout, stderr := invoke("batch", "-audit", "-profile", "tiny", "-workload", "429.mcf",
		"-tracker", "none", "-attack", "hammer", "-mode", "vrr-br1,rfmsb", "-nrh", "125", "-out", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	f, err := os.Open(filepath.Join(out, "batch.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sum uint64
	n := 0
	for dec := json.NewDecoder(f); dec.More(); n++ {
		var rec struct {
			Result struct {
				Audit struct {
					Escapes uint64 `json:"escapes"`
				}
			} `json:"result"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		sum += rec.Result.Audit.Escapes
	}
	if n != 1 || sum == 0 {
		t.Fatalf("want one escaping record, got %d records with %d escapes", n, sum)
	}
	if want := fmt.Sprintf("  none         INSECURE (%d escapes)\n", sum); !strings.Contains(stdout, want) {
		t.Errorf("stdout lacks %q (the batch.jsonl sum):\n%s", want, stdout)
	}
}

// TestBatchWithoutCacheCountsNoMisses: a sweep that names no -cache
// has no cache attached, so its counters.json reports no cache misses.
func TestBatchWithoutCacheCountsNoMisses(t *testing.T) {
	tel := t.TempDir()
	code, _, stderr := invoke("batch", "-profile", "tiny", "-tracker", "none,dapper-h", "-workload", "429.mcf",
		"-nrh", "500,1000", "-attack", "none", "-out", t.TempDir(), "-telemetry", tel)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	raw, err := os.ReadFile(filepath.Join(tel, "counters.json"))
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]float64
	if err := json.Unmarshal(raw, &counters); err != nil {
		t.Fatal(err)
	}
	if counters["unique"] != 4 || counters["cache_misses"] != 0 {
		t.Errorf("unique %v, cache_misses %v; want 4 and 0:\n%s", counters["unique"], counters["cache_misses"], raw)
	}
}

func TestListTrackers(t *testing.T) {
	code, stdout, _ := invoke("list", "trackers")
	if code != 0 || !strings.Contains(stdout, "dapper-h\n") {
		t.Errorf("exit %d, stdout %q", code, stdout)
	}
}

// TestSimModeReachesController: -mode must change what the controller
// issues, not only the tracker's bookkeeping — PARA under the refresh
// attack refreshes two victim rows per mitigation with VRR-BR2.
func TestSimModeReachesController(t *testing.T) {
	sim := func(mode string) string {
		t.Helper()
		code, stdout, stderr := invoke("sim", "-tracker", "para", "-mode", mode, "-nrh", "125",
			"-attack", "refresh", "-rows-per-bank", "2048", "-warmup", "5", "-measure", "20")
		if code != 0 {
			t.Fatalf("-mode %s: exit %d: %s", mode, code, stderr)
		}
		return stdout
	}
	if br1, br2 := sim("VRR-BR1"), sim("VRR-BR2"); br1 == br2 {
		t.Errorf("-mode VRR-BR2 printed the same run as VRR-BR1:\n%s", br1)
	}
}

// TestSimBadGeometryFailsLoudly: a geometry DAPPER-H cannot be built
// for is reported as an error before anything simulates, not a panic
// inside a worker.
func TestSimBadGeometryFailsLoudly(t *testing.T) {
	code, stdout, stderr := invoke("sim", "-tracker", "none,dapper-h", "-rows-per-bank", "100")
	if code == 0 {
		t.Fatal("exit 0, want non-zero")
	}
	if !strings.Contains(stderr, "dapper-h") || !strings.Contains(stderr, "power of two") {
		t.Errorf("stderr %q does not name the tracker and the geometry fault", stderr)
	}
	if stdout != "" {
		t.Errorf("a run simulated before the fault was reported:\n%s", stdout)
	}
}
