package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
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
		{[]string{"audit", "-nrh", "125,x"}, "-nrh"},
		{[]string{"sim", "-nrh", "0"}, "-nrh"},
		{[]string{"experiments", "-profile", "bogus"}, "-profile"},
		{[]string{"batch", "-engine", "bogus"}, "-engine"},
		{[]string{"timeline", "-engine", "bogus"}, "-engine"},
		{[]string{"blame", "-tracker", "dapper-h,nosuch"}, "-tracker"},
		{[]string{"sim", "-workload", "rep"}, "-workload"},
		{[]string{"timeline", "-format", "ascii"}, "-format"},
		{[]string{"experiments", "-exp", "fig99"}, "-exp"},
		{[]string{"list", "nothing"}, "trackers, workloads, experiments"},
		{[]string{"sim", "stray"}, `unexpected argument "stray"`},
		{[]string{"sim", "-warmup", "-5", "-measure", "10", "-rows-per-bank", "2048"}, "-warmup"},
		{[]string{"sim", "-measure", "-3"}, "-measure"},
		{[]string{"sim", "-measure", "0"}, "-measure"},
		{[]string{"sim", "-warmup", "0"}, "-warmup"},
		{[]string{"timeline", "-window", "0.0001"}, "-window"},
		{[]string{"blame", "-window", "0.0001"}, "-window"},
		{[]string{"batch", "-profile", "tiny", "-window", "-1"}, "-window"},
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
