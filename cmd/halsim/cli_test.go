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
	traceNeg := filepath.Join(t.TempDir(), "trace-neg.yaml")
	if err := os.WriteFile(traceNeg, []byte(
		"name: trace-neg\nrun:\n  rate_gbps: 40\n  duration: 5ms\n  telemetry:\n    trace_every: -5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fnBogus := filepath.Join(t.TempDir(), "fn-bogus.yaml")
	if err := os.WriteFile(fnBogus, []byte(
		"name: fn-bogus\nrun:\n  fn: KVS\n  fn_config: bogus\n  rate_gbps: 40\n  duration: 5ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	server1 := filepath.Join(t.TempDir(), "server1.yaml")
	if err := os.WriteFile(server1, []byte(
		"name: server1\nrun:\n  rate_gbps: 40\n  duration: 5ms\nevents:\n  - at: 1ms\n    for: 1ms\n    kind: rx-drop\n    server: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	overlap := filepath.Join(t.TempDir(), "overlap.yaml")
	if err := os.WriteFile(overlap, []byte(
		"name: overlap\nrun:\n  rate_gbps: 40\n  duration: 6ms\nevents:\n"+
			"  - at: 1ms\n    for: 2ms\n    kind: rx-drop\n    drop_prob: 0.5\n"+
			"  - at: 2ms\n    for: 2ms\n    kind: rx-drop\n    drop_prob: 0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fleet64, err := filepath.Abs("../../examples/scenarios/fleet-64.yaml")
	if err != nil {
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
		{[]string{"run"}, "run wants one scenario file, have none"},
		{[]string{"run", traceNeg, "-rate", "80"}, "already defines the run; drop -rate"},
		{[]string{"validate", server1}, "targets server 1 outside a fleet of 1"},
		{[]string{"validate", overlap}, "window 0 (snic rx-drop p=0.500, 1ms..3ms) overlaps window 1 (snic rx-drop p=0.500, 2ms..4ms)"},
		{[]string{"-fault", "core-crash", "-fault-cores", "20", "-fault-at", "10ms", "-duration", "40ms"}, "crashes 20 snic cores, but the snic station has 8"},
		{[]string{"-mode", "slb", "-fault", "core-crash", "-fault-cores", "5", "-fault-at", "10ms", "-duration", "40ms"}, "crashes 5 snic cores, but the snic station has 4"},
		{[]string{"-servers", "5000"}, "5000 servers outside 1..4096"},
		{[]string{"-servers", "4", "-pods", "8"}, "8 pods outside 1..servers"},
		{[]string{"-servers", "4", "-dispatch", "random"}, "unknown dispatch policy"},
		{[]string{"-mode", "turbo"}, "unknown mode"},
		{[]string{"-fault", "meteor"}, "unknown kind"},
		{[]string{"-fault", "rx-drop", "-fault-drop", "1.5"}, "drop_prob in (0, 1]"},
		{[]string{"-workload", "web", "-rate", "60"}, "both a constant rate (60 Gbps) and the web trace workload set"},
		{[]string{"-workload", "weekend"}, "unknown workload"},
		{[]string{"-timeline", "t.csv", "-timeline-period", "-1ms"}, "negative timeline period -1ms"},
		{[]string{"run", traceNeg, "-trace-out", "t.json"}, "negative trace sampling interval -5"},
		{[]string{"-servers", "4", "-timeline", "t.csv", "-timeline-period", "-1ms"}, "negative timeline period -1ms"},

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
		{[]string{"run", fleet64, "-shards", "4", "-prof", "-trace-out", "t.json", "-trace-every", "8"}, "-trace-every needs -trace-out on a single server"},
		{[]string{"-pods", "8", "-dispatch", "p2c"}, "set without -servers"},
		{[]string{"-servers", "8", "-oversub", "4"}, "set without -pods >= 2"},
		{[]string{"-shards", "4"}, "shards apply to fleets"},
		{[]string{"-servers", "8", "-duration", "1ms", "-trace-out", "t.json"}, "-trace-out on a fleet needs -shards > 1 -prof"},
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

// TestRunTakesMainFlags: `halsim run FILE` parses the same flag set as
// `halsim FILE`, with flags before or after the file, so both forms write
// the same artifacts.
func TestRunTakesMainFlags(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "small.yaml")
	if err := os.WriteFile(file, []byte(
		"name: small\nrun:\n  rate_gbps: 40\n  duration: 5ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var traces [][]byte
	for i, args := range [][]string{
		{"run", file, "-trace-every", "8", "-trace-out", "OUT"},
		{"-trace-every", "8", "-trace-out", "OUT", file},
		{"run", "-trace-every", "8", file, "-trace-out", "OUT"},
	} {
		out := filepath.Join(dir, fmt.Sprintf("t%d.json", i))
		for j := range args {
			if args[j] == "OUT" {
				args[j] = out
			}
		}
		if _, stderr, code := halsim(t, args...); code != 0 {
			t.Fatalf("halsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, b)
	}
	for i := 1; i < len(traces); i++ {
		if !bytes.Equal(traces[0], traces[i]) {
			t.Errorf("form %d wrote a different trace than form 0", i)
		}
	}
}

// TestTraceEveryFlagOverridesFile: a set -trace-every wins over the file's
// telemetry.trace_every, as every other override does.
func TestTraceEveryFlagOverridesFile(t *testing.T) {
	dir := t.TempDir()
	trace := func(every int, flags ...string) []byte {
		t.Helper()
		file := filepath.Join(dir, fmt.Sprintf("te%d.yaml", every))
		if err := os.WriteFile(file, []byte(fmt.Sprintf(
			"name: te\nrun:\n  rate_gbps: 40\n  duration: 5ms\n  telemetry:\n    trace_every: %d\n", every)), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, fmt.Sprintf("t%d-%d.json", every, len(flags)))
		args := append([]string{"run", file, "-trace-out", out}, flags...)
		if _, stderr, code := halsim(t, args...); code != 0 {
			t.Fatalf("halsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	flagged := trace(16, "-trace-every", "8")
	if !bytes.Equal(flagged, trace(8)) {
		t.Error("trace_every: 16 with -trace-every 8 wrote a different trace than trace_every: 8")
	}
	if bytes.Equal(flagged, trace(16)) {
		t.Error("-trace-every 8 beside trace_every: 16 wrote the trace of trace_every: 16")
	}
}
