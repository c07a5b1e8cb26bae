package scenario

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
)

const fullDoc = `
name: full
description: every section at once
run:
  mode: hal
  fn: nat          # case-insensitive
  rate_gbps: 60
  duration: 4ms
  warmup: 200us
  seed: 7
  shards: 1
  telemetry:
    timeline: true
events:
  - at: 1500us
    for: 600us
    kind: core-crash
    side: snic
    cores: 2
  - at: 2500us
    for: 300us
    kind: rx-drop
    drop_prob: 0.1
chaos:
  seed: 11
  events: 3
  window: 1ms..3ms
  kinds:
    accel-degrade: 1
    telemetry-blackout: 1
assertions:
  - metric: conservation
    op: ==
    value: closed
  - metric: p99_latency_us
    op: <=
    value: 500
  - metric: recovery_time
    op: <=
    value: 2ms
  - metric: fwd_th_gbps
    op: ">="
    value: 1
    during: 200us..1200us
    agg: min
  - metric: avg_gbps
    op: ">="
    value: 40
    phase: before
`

func TestParseFull(t *testing.T) {
	s, err := Parse([]byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "full" || s.Run.Mode != server.HAL || s.Run.Fn != nf.NAT {
		t.Fatalf("run spec mismatch: %+v", s.Run)
	}
	if s.Run.Seed != 7 || s.Run.Shards != 1 || s.Run.Warmup != 200*sim.Microsecond {
		t.Fatalf("run knobs mismatch: %+v", s.Run)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != "core-crash" || s.Events[1].DropProb != 0.1 {
		t.Fatalf("events mismatch: %+v", s.Events)
	}
	if s.Chaos == nil || s.Chaos.Seed != 11 || len(s.Chaos.Kinds) != 2 {
		t.Fatalf("chaos mismatch: %+v", s.Chaos)
	}
	if len(s.Assertions) != 5 {
		t.Fatalf("want 5 assertions, have %d", len(s.Assertions))
	}
	if a := s.Assertions[2]; a.Value != 2e6 { // 2ms in ns
		t.Fatalf("duration assertion value: %g", a.Value)
	}
	if a := s.Assertions[3]; a.WindowFrom != 200*sim.Microsecond || a.Agg != "min" {
		t.Fatalf("window assertion: %+v", a)
	}

	comp, err := s.Compile(Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Plan == nil || len(comp.FaultWindows) < 3 {
		t.Fatalf("want explicit + chaos windows, have %d", len(comp.FaultWindows))
	}
	if !comp.Cfg.Telemetry.Timeline {
		t.Fatal("windowed assertion should force the timeline on")
	}
	if len(comp.RC.PhaseMarks) != 2 {
		t.Fatalf("phase marks: %v", comp.RC.PhaseMarks)
	}
	if !comp.RC.Drain {
		t.Fatal("fault runs should drain by default")
	}
	// Shards apply to fleets: a single-server scenario rejects an override.
	if _, err := s.Compile(Overrides{Shards: 4}); err == nil || !strings.Contains(err.Error(), "shards apply to fleets") {
		t.Fatalf("shards override on a single-server scenario: err = %v", err)
	}

	// Beside a cluster: block, shards: 2 parses and lowers onto the fleet.
	fleet, err := Parse([]byte("name: fleet\nrun:\n  rate_gbps: 40\n  duration: 2ms\n  shards: 2\n  cluster:\n    servers: 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := fleet.Compile(Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Run.Shards != 2 || fc.Cfg.Shards != 2 || fc.Cfg.Cluster == nil || fc.Cfg.Cluster.Servers != 4 {
		t.Fatalf("fleet shards lowered wrong: run %+v, cfg shards %d cluster %+v", fleet.Run, fc.Cfg.Shards, fc.Cfg.Cluster)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"missing name", "run:\n  rate_gbps: 10\n  duration: 1ms\n", "name"},
		{"missing run", "name: x\n", "missing required `run`"},
		{"unknown top key", "name: x\nbogus: 1\nrun:\n  rate_gbps: 10\n  duration: 1ms\n", "unknown key"},
		{"unknown run key", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\n  typo: 1\n", "unknown key"},
		{"bad mode", "name: x\nrun:\n  mode: quantum\n  rate_gbps: 10\n  duration: 1ms\n", "unknown mode"},
		{"bad fn", "name: x\nrun:\n  fn: frobnicate\n  rate_gbps: 10\n  duration: 1ms\n", "unknown function"},
		{"no load", "name: x\nrun:\n  duration: 1ms\n", "rate_gbps"},
		{"bad duration", "name: x\nrun:\n  rate_gbps: 10\n  duration: fast\n", "not a duration"},
		{"event past end", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nevents:\n  - at: 2ms\n    for: 1ms\n    kind: core-crash\n", "past the run"},
		{"event bad kind", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nevents:\n  - at: 500us\n    for: 100us\n    kind: gremlins\n", "unknown kind"},
		{"side on degrade", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nevents:\n  - at: 500us\n    for: 100us\n    kind: accel-degrade\n    side: host\n", "side"},
		{"bad drop prob", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nevents:\n  - at: 500us\n    for: 100us\n    kind: rx-drop\n    drop_prob: 1.5\n", "drop_prob"},
		{"chaos bad kind", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nchaos:\n  kinds:\n    gremlins: 1\n", "unknown kind"},
		{"chaos window past end", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nchaos:\n  window: 500us..2ms\n", "past the run"},
		{"assert bad metric", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: vibes\n    op: \">=\"\n    value: 1\n", "unknown metric"},
		{"assert bad op", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: avg_gbps\n    op: \"~=\"\n    value: 1\n", "unknown op"},
		{"assert bad value", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: avg_gbps\n    op: \">=\"\n    value: lots\n", "not a number"},
		{"assert window not window metric", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: avg_gbps\n    op: \">=\"\n    value: 1\n    during: 100us..500us\n", "not a timeline-window metric"},
		{"assert window past end", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: power_w\n    op: \"<=\"\n    value: 400\n    during: 100us..5ms\n", "past the run"},
		{"assert phase and window", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: power_w\n    op: \"<=\"\n    value: 400\n    during: 100us..500us\n    phase: before\n", "mutually exclusive"},
		{"assert conservation op", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: conservation\n    op: \">=\"\n    value: closed\n", "== and != only"},
		{"assert bad recovery value", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nassertions:\n  - metric: recovery_time\n    op: \"<=\"\n    value: 5\n", "not a duration"},
		{"tab indent", "name: x\nrun:\n\trate_gbps: 10\n", "tab"},
		{"shards without cluster", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\n  shards: 2\n", "shards apply to fleets"},
		{"slb cores out of range", "name: x\nrun:\n  mode: slb\n  slb_cores: 9\n  rate_gbps: 10\n  duration: 1ms\n", "SLB needs 1..7 forwarding cores"},
		{"bad dispatch", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\n  cluster:\n    servers: 4\n    dispatch: random\n", "unknown dispatch policy"},
		{"negative rate window", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\n  rate_window: -1ms\n", "negative rate window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("want error containing %q, have nil", tc.want)
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("want *ValidationError, have %T: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, have %q", tc.want, err)
			}
		})
	}
}

const chaosDoc = `
name: chaos-determinism
run:
  mode: hal
  fn: NAT
  rate_gbps: 60
  duration: 4ms
  seed: 42
chaos:
  events: 6
  window: 1ms..3ms
assertions:
  - metric: conservation
    op: ==
    value: closed
  - metric: fault_events
    op: ">"
    value: 0
`

// TestChaosGeneration checks the generator's contract: deterministic for a
// seed, same-kind windows never overlapping, overlap bounded.
func TestChaosGeneration(t *testing.T) {
	s, err := Parse([]byte(chaosDoc))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Chaos.generate(42, s.Run.Duration)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Chaos.generate(42, s.Run.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("no chaos windows generated")
	}
	if len(first) != len(again) {
		t.Fatalf("nondeterministic count: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, first[i], again[i])
		}
	}
	other, err := s.Chaos.generate(43, s.Run.Duration)
	if err != nil {
		t.Fatal(err)
	}
	same := len(other) == len(first)
	if same {
		for i := range first {
			if first[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seed produced the identical schedule")
	}
	// Same-kind windows must not overlap, and at most max_overlap (2)
	// windows are active at once. The most are active at some window's
	// start, so counting the windows active at each start covers every
	// instant.
	spec := s.Chaos.withDefaults(42, s.Run.Duration)
	for i, a := range first {
		active := 0
		for j, b := range first {
			if i != j && a.Kind == b.Kind && a.At < b.At+b.For && b.At < a.At+a.For {
				t.Fatalf("same-kind overlap: %+v and %+v", a, b)
			}
			if b.At <= a.At && a.At < b.At+b.For {
				active++
			}
		}
		if active > spec.MaxOverlap {
			t.Fatalf("window %d starts with %d concurrent faults (max %d)", i, active, spec.MaxOverlap)
		}
	}
}

// TestAssertionFailure checks a violated assertion fails the outcome and the
// report names the observed value.
func TestAssertionFailure(t *testing.T) {
	doc := `
name: doomed
run:
  rate_gbps: 60
  duration: 4ms
events:
  - at: 1500us
    for: 600us
    kind: core-crash
    cores: 2
assertions:
  - metric: recovery_time
    op: <=
    value: 1ns
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	o, err := s.Execute(Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Passed {
		t.Fatal("recovery_time <= 1ns should be violated")
	}
	if len(o.Checks) != 1 || o.Checks[0].Pass {
		t.Fatalf("checks: %+v", o.Checks)
	}
	if o.Checks[0].ObservedText == "" {
		t.Fatal("failed check has no observed value")
	}
	var md bytes.Buffer
	if err := o.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), o.Checks[0].ObservedText) {
		t.Fatalf("report does not name the observed value %q", o.Checks[0].ObservedText)
	}
	if !strings.Contains(md.String(), "FAIL") {
		t.Fatal("report does not say FAIL")
	}
}

// TestAssertionEvaluationEdgeCases covers the bespoke metrics.
func TestAssertionEvaluationEdgeCases(t *testing.T) {
	comp := &Compiled{RC: server.RunConfig{Duration: 4 * sim.Millisecond}}
	res := server.Result{SentAll: 10, CompletedAll: 8, DroppedAll: 1, InFlightEnd: 1, FailoverTicks: -1}

	open := evalOne(Assertion{Metric: "conservation", Op: "==", RawValue: "closed"}, comp, res)
	if open.Pass {
		t.Fatal("open ledger passed a == closed assertion")
	}
	if !strings.Contains(open.Detail, "in flight") {
		t.Fatalf("detail: %q", open.Detail)
	}

	// failover_ticks == -1 (none) must fail even a <= comparison.
	fo := evalOne(Assertion{Metric: "failover_ticks", Op: "<=", Value: 100, RawValue: "100"}, comp, res)
	if fo.Pass {
		t.Fatal("failover_ticks with no failover passed")
	}
	if fo.ObservedText != "none" {
		t.Fatalf("observed: %q", fo.ObservedText)
	}

	// recovery_time without fault windows must fail with a reason.
	rt := evalOne(Assertion{Metric: "recovery_time", Op: "<=", Value: 1e6, RawValue: "1ms"}, comp, res)
	if rt.Pass || rt.Detail == "" {
		t.Fatalf("recovery with no faults: %+v", rt)
	}

	// Window assertion without a timeline must fail with a reason.
	w := evalOne(Assertion{Metric: "power_w", Op: "<=", Value: 400, RawValue: "400",
		WindowFrom: 0, WindowTo: sim.Millisecond}, comp, res)
	if w.Pass || w.Detail != "timeline not collected" {
		t.Fatalf("window without timeline: %+v", w)
	}
}

// TestExampleScenarios keeps the shipped starter set loadable: every file
// under examples/scenarios must parse, validate, and carry assertions.
func TestExampleScenarios(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("want the starter set of >=4 example scenarios, have %d", len(files))
	}
	for _, f := range files {
		s, err := Load(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(s.Assertions) == 0 {
			t.Errorf("%s: example scenario has no assertions", f)
		}
		if s.Description == "" {
			t.Errorf("%s: example scenario has no description", f)
		}
	}
}

// TestSeedOverride checks the CLI seed override reshapes the chaos schedule.
func TestSeedOverride(t *testing.T) {
	s, err := Parse([]byte(`
name: reseed
run:
  rate_gbps: 40
  duration: 2ms
chaos:
  events: 4
`))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Compile(Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Compile(Overrides{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if b.Seed != 99 || b.Cfg.Seed != 99 {
		t.Fatalf("override not applied: %+v", b)
	}
	same := len(a.FaultWindows) == len(b.FaultWindows)
	if same {
		for i := range a.FaultWindows {
			if a.FaultWindows[i] != b.FaultWindows[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed override left the chaos schedule unchanged")
	}
}

const clusterDoc = `
name: fleet-smoke
description: small fleet with one server blackout
run:
  mode: hal
  fn: NAT
  rate_gbps: 80
  duration: 4ms
  seed: 5
  cluster:
    servers: 6
    dispatch: p2c
    wire: 4us
    link_gbps: 50
events:
  - at: 1ms
    for: 1ms
    kind: server-crash
    server: 2
assertions:
  - metric: conservation
    op: ==
    value: closed
  - metric: avg_gbps
    op: ">="
    value: 70
`

// TestClusterScenario parses and lowers a fleet scenario: the run.cluster
// block becomes Config.Cluster, server-crash events become whole-server
// blackout windows (not fault-plan events), and execution passes its
// assertions with the ledger closed.
func TestClusterScenario(t *testing.T) {
	s, err := Parse([]byte(clusterDoc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Cfg.Cluster
	if cl == nil {
		t.Fatal("run.cluster did not lower to Config.Cluster")
	}
	if cl.Servers != 6 || cl.Dispatch != "p2c" || cl.WireNS != 4000 || cl.LinkGbps != 50 {
		t.Fatalf("cluster lowered wrong: %+v", cl)
	}
	if len(cl.Crashes) != 1 || cl.Crashes[0].Server != 2 || cl.Crashes[0].At != 1_000_000 || cl.Crashes[0].For != 1_000_000 {
		t.Fatalf("server-crash lowered wrong: %+v", cl.Crashes)
	}
	if c.Plan != nil || c.Cfg.Faults != nil {
		t.Fatal("fleet scenario must not carry a single-server fault plan")
	}
	if !c.RC.Drain {
		t.Fatal("fault run should drain by default")
	}
	o, err := s.Execute(Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Passed {
		for _, ch := range o.Checks {
			t.Logf("check: %s observed %s pass=%v %s", ch.Assertion.String(), ch.ObservedText, ch.Pass, ch.Detail)
		}
		t.Fatal("cluster scenario failed its assertions")
	}
}

// TestClusterReportByteIdenticalAcrossShards is the determinism pledge:
// the same fleet scenario and seed render byte-identical reports whether
// the run used the serial engine or the conservative-parallel one.
func TestClusterReportByteIdenticalAcrossShards(t *testing.T) {
	render := func(shards int) string {
		s, err := Parse([]byte(clusterDoc))
		if err != nil {
			t.Fatal(err)
		}
		o, err := s.Execute(Overrides{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var md bytes.Buffer
		if err := o.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		return md.String()
	}
	md1, md4 := render(1), render(4)
	if md1 != md4 {
		t.Errorf("fleet markdown reports differ between shards=1 and shards=4:\n--- shards=1\n%s\n--- shards=4\n%s", md1, md4)
	}
	if strings.Contains(md1, "serial") || strings.Contains(md1, "parallel") {
		t.Error("report leaks the engine label, breaking cross-engine byte-identity")
	}
}

// TestClusterScenarioValidation exercises the fleet-specific rejections.
func TestClusterScenarioValidation(t *testing.T) {
	bad := []struct{ doc, want string }{
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
  cluster:
    servers: 0
`, "servers"},
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
events:
  - at: 1ms
    for: 500us
    kind: server-crash
    server: 1
`, "run.cluster"},
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
  cluster:
    servers: 4
events:
  - at: 1ms
    for: 500us
    kind: server-crash
    server: 9
`, "outside fleet"},
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
  cluster:
    servers: 4
events:
  - at: 1ms
    for: 500us
    kind: core-crash
`, "server-crash"},
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
  cluster:
    servers: 4
chaos:
  events: 2
`, "chaos"},
	}
	for i, tc := range bad {
		_, err := Parse([]byte(tc.doc))
		if err == nil {
			t.Fatalf("case %d: bad scenario parsed cleanly", i)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

const podDoc = `
name: pod-smoke
description: small podded fleet
run:
  mode: hal
  fn: NAT
  rate_gbps: 80
  duration: 2ms
  seed: 5
  drain: true
  cluster:
    servers: 8
    dispatch: least-conn
    wire: 2us
    link_gbps: 100
    pods: 2
    oversub: 2
    spine_wire: 3us
assertions:
  - metric: conservation
    op: ==
    value: closed
`

// TestClusterPodScenario lowers the pod-fabric keys (pods, oversub,
// spine_wire) and the least-conn dispatch policy into ClusterConfig, and
// checks a podded fleet renders byte-identical reports serial vs sharded
// — the two-tier fabric must not break the determinism pledge.
func TestClusterPodScenario(t *testing.T) {
	s, err := Parse([]byte(podDoc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile(Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Cfg.Cluster
	if cl == nil {
		t.Fatal("run.cluster did not lower to Config.Cluster")
	}
	if cl.Pods != 2 || cl.Oversub != 2 || cl.SpineWireNS != 3000 || cl.Dispatch != "least-conn" {
		t.Fatalf("pod fabric lowered wrong: %+v", cl)
	}
	render := func(shards int) string {
		s, err := Parse([]byte(podDoc))
		if err != nil {
			t.Fatal(err)
		}
		o, err := s.Execute(Overrides{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !o.Passed {
			t.Fatal("pod scenario failed its assertions")
		}
		var md bytes.Buffer
		if err := o.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		return md.String()
	}
	if md0, md4 := render(0), render(4); md0 != md4 {
		t.Errorf("podded fleet markdown reports differ between serial and shards=4:\n--- serial\n%s\n--- shards=4\n%s", md0, md4)
	}
}

// TestClusterPodValidation exercises the pod-fabric rejections.
func TestClusterPodValidation(t *testing.T) {
	bad := []struct{ doc, want string }{
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
  cluster:
    servers: 4
    pods: 9
`, "pods"},
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
  cluster:
    servers: 4
    oversub: -1
`, "oversub"},
		{`
name: x
run:
  rate_gbps: 10
  duration: 2ms
  cluster:
    servers: 5000
`, "servers"},
	}
	for i, tc := range bad {
		_, err := Parse([]byte(tc.doc))
		if err == nil {
			t.Fatalf("case %d: bad scenario parsed cleanly", i)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}
