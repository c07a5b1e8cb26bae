package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the halsim binary built once for the whole package: the exit-code
// contract is only observable on a real process (go run collapses every
// nonzero status to 1).
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "halsim-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "halsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// halsim runs the binary and returns its stdout, stderr and exit status.
func halsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("halsim %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestFlagRunsMatchFixture replays testdata/flag_runs.txt: each "$ halsim
// ARGS" line is followed by the stdout that invocation must print, minus
// the wall-clock "[N packets simulated in T]" line.
func TestFlagRunsMatchFixture(t *testing.T) {
	f, err := os.Open("testdata/flag_runs.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type run struct {
		args []string
		want strings.Builder
	}
	var runs []*run
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if args, ok := strings.CutPrefix(line, "$ halsim "); ok {
			runs = append(runs, &run{args: strings.Fields(args)})
			continue
		}
		if len(runs) == 0 {
			t.Fatalf("fixture line before the first command: %q", line)
		}
		runs[len(runs)-1].want.WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("empty fixture")
	}
	for _, r := range runs {
		out, stderr, code := halsim(t, r.args...)
		if code != 0 {
			t.Errorf("halsim %s: exit %d\n%s", strings.Join(r.args, " "), code, stderr)
			continue
		}
		var got strings.Builder
		for _, l := range strings.SplitAfter(out, "\n") {
			if l != "" && !strings.Contains(l, "packets simulated in") {
				got.WriteString(l)
			}
		}
		if got.String() != r.want.String() {
			t.Errorf("halsim %s: stdout differs from the fixture\n--- got\n%s--- want\n%s",
				strings.Join(r.args, " "), got.String(), r.want.String())
		}
	}
}

// TestBadInputsExitUsage pins every input that can be rejected before the
// simulation starts to exit status 2 with a reason on stderr: no bad input
// fails at run time, and no flag is silently ignored.
func TestBadInputsExitUsage(t *testing.T) {
	slb9 := filepath.Join(t.TempDir(), "slb9.yaml")
	if err := os.WriteFile(slb9, []byte(
		"name: slb9\nrun:\n  mode: slb\n  slb_cores: 9\n  rate_gbps: 40\n  duration: 5ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fnBogus := filepath.Join(t.TempDir(), "fn-bogus.yaml")
	if err := os.WriteFile(fnBogus, []byte(
		"name: fn-bogus\nrun:\n  fn: KVS\n  fn_config: bogus\n  rate_gbps: 40\n  duration: 5ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args   []string
		reason string
	}{
		// Values the validator, the server or the fleet rejects.
		{[]string{"-fault", "core-crash", "-duration", "50ms"}, "past the run's duration"},
		{[]string{"-fault", "core-crash", "-fault-at", "0s"}, "`at` must be positive"},
		{[]string{"-mode", "slb", "-slb-cores", "9"}, "SLB needs 1..7 forwarding cores"},
		{[]string{"-duration", "0s"}, "duration"},
		{[]string{"validate", slb9}, "SLB needs 1..7 forwarding cores"},
		{[]string{"-fn", "KVS", "-fn-config", "bogus"}, `unknown KVS config "bogus"`},
		{[]string{"validate", fnBogus}, `unknown KVS config "bogus"`},
		{[]string{"run", slb9}, "SLB needs 1..7 forwarding cores"},
		{[]string{"-servers", "5000"}, "5000 servers outside 1..4096"},
		{[]string{"-servers", "4", "-pods", "8"}, "8 pods outside 1..servers"},
		{[]string{"-servers", "4", "-dispatch", "random"}, "unknown dispatch policy"},
		{[]string{"-mode", "turbo"}, "unknown mode"},
		{[]string{"-fault", "meteor"}, "unknown kind"},
		{[]string{"-fault", "rx-drop", "-fault-drop", "1.5"}, "drop_prob in (0, 1]"},

		// Flags set where they shape nothing.
		{[]string{"-slb-cores", "3"}, "-slb-cores set without -mode slb"},
		{[]string{"-mode", "host", "-slb-th", "30"}, "-slb-th set without -mode slb"},
		{[]string{"-fault-at", "50ms"}, "-fault-at set without -fault"},
		{[]string{"-fault-for", "50ms"}, "-fault-for set without -fault"},
		{[]string{"-fault-cores", "3"}, "-fault-cores set without -fault"},
		{[]string{"-fault-drop", "0.5"}, "-fault-drop set without -fault"},
		{[]string{"-fault", "rx-drop", "-fault-cores", "3"}, "-fault-cores set without -fault core-crash"},
		{[]string{"-fault", "core-crash", "-fault-drop", "0.5"}, "-fault-drop set without -fault rx-drop"},
		{[]string{"-timeline-period", "1ms"}, "-timeline-period set without -timeline"},
		{[]string{"-trace-every", "8"}, "-trace-every needs -trace-out"},
		{[]string{"-servers", "8", "-shards", "3", "-prof", "-trace-out", "t.json", "-trace-every", "8"}, "-trace-every needs -trace-out on a single server"},
		{[]string{"-pods", "8", "-dispatch", "p2c"}, "set without -servers"},
		{[]string{"-servers", "8", "-oversub", "4"}, "set without -pods >= 2"},
		{[]string{"-shards", "4"}, "shards apply to fleets"},
		{[]string{"-servers", "8", "-duration", "1ms", "-trace-out", "t.json"}, "-trace-out on a fleet needs -shards > 1 -prof"},
		{[]string{"-servers", "8", "-fault", "core-crash"}, "-fault set with -servers"},
	}
	for _, c := range cases {
		_, stderr, code := halsim(t, c.args...)
		if code != 2 || !strings.Contains(stderr, c.reason) {
			t.Errorf("halsim %s: exit %d, want 2 with %q; stderr:\n%s",
				strings.Join(c.args, " "), code, c.reason, stderr)
		}
	}
}

// TestSLBHostMode runs the §IV host-side software balancer from the flags.
func TestSLBHostMode(t *testing.T) {
	out, stderr, code := halsim(t, "-mode", "slb-host", "-slb-th", "30", "-rate", "20", "-duration", "5ms")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.HasPrefix(out, "mode=SLB-host fn=NAT\n") {
		t.Errorf("want an SLB-host run, have:\n%s", out)
	}
}
