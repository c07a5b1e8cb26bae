package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"halsim/internal/fault"
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
	if s.Name != "full" || s.Cfg.Mode != server.HAL || s.Cfg.Fn != nf.NAT {
		t.Fatalf("run template mismatch: %+v", s.Cfg)
	}
	if s.Cfg.Seed != 7 || s.Cfg.Shards != 1 || s.RC.Warmup != 200*sim.Microsecond {
		t.Fatalf("run knobs mismatch: %+v %+v", s.Cfg, s.RC)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != fault.CoreCrash || s.Events[0].To != 2100*sim.Microsecond ||
		s.Events[1].DropProb != 0.1 || s.Events[1].Line != 20 {
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
	if len(comp.Windows()) < 3 {
		t.Fatalf("want explicit + chaos windows, have %d", len(comp.Windows()))
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
	if fleet.Cfg.Shards != 2 || fc.Cfg.Shards != 2 || fc.Cfg.Cluster == nil || fc.Cfg.Cluster.Servers != 4 {
		t.Fatalf("fleet shards lowered wrong: template shards %d, cfg shards %d cluster %+v", fleet.Cfg.Shards, fc.Cfg.Shards, fc.Cfg.Cluster)
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
		{"rate beside workload", "name: x\nrun:\n  rate_gbps: 10\n  workload: cache\n  duration: 1ms\n", "both a constant rate (10 Gbps) and the cache trace workload set"},
		{"negative trace every", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\n  telemetry:\n    trace_every: -5\n", "negative trace sampling interval -5"},
		{"negative timeline period", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\n  telemetry:\n    timeline: true\n    timeline_period: -1ms\n", "negative timeline period -1ms"},
		{"core-crash wider than the snic", "name: x\nrun:\n  rate_gbps: 10\n  duration: 1ms\nevents:\n  - at: 500us\n    for: 100us\n    kind: core-crash\n    cores: 20\n", "crashes 20 snic cores, but the snic station has 8"},
		{"core-crash wider than the slb snic", "name: x\nrun:\n  mode: slb\n  rate_gbps: 10\n  duration: 1ms\nevents:\n  - at: 500us\n    for: 100us\n    kind: core-crash\n    cores: 5\n", "crashes 5 snic cores, but the snic station has 4"},
		{"overlapping rx-drops", overlapDoc, "window 0 (snic rx-drop p=0.500, 1ms..3ms) overlaps window 1 (snic rx-drop p=0.500, 2ms..4ms)"},
		{"rx-drop under a server-crash", "name: x\nrun:\n  rate_gbps: 10\n  duration: 5ms\nevents:\n  - at: 1ms\n    for: 2ms\n    kind: server-crash\n  - at: 2ms\n    for: 2ms\n    kind: rx-drop\n    side: host\n", "(events at line 6 and line 9)"},
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

// overlapDoc's two rx-drop windows overlap on the SNIC's Rx rings.
const overlapDoc = `name: overlap
run:
  rate_gbps: 40
  duration: 6ms
events:
  - at: 1ms
    for: 2ms
    kind: rx-drop
    drop_prob: 0.5
  - at: 2ms
    for: 2ms
    kind: rx-drop
    drop_prob: 0.5
`

// TestConflictNamesBothWindows pins the conflict error: it names both
// windows with their spans and the lines they were written on.
func TestConflictNamesBothWindows(t *testing.T) {
	_, err := Parse([]byte(overlapDoc))
	if err == nil || !strings.Contains(err.Error(), "(events at line 6 and line 10)") {
		t.Fatalf("err = %v, want both windows' lines", err)
	}
	if !errors.As(err, new(*ValidationError)) {
		t.Fatalf("want *ValidationError, have %T", err)
	}
}

// TestTouchingWindowsRunAsUnion runs two windows that touch on one
// mechanism against the single window spanning both: the reports differ
// only in the fault timeline's rows.
func TestTouchingWindowsRunAsUnion(t *testing.T) {
	report := func(knobs string, spans ...string) []string {
		doc := "name: seam\nrun:\n  mode: hal\n  fn: NAT\n  rate_gbps: 40\n  duration: 6ms\nevents:\n"
		for _, sp := range spans {
			at, length, _ := strings.Cut(sp, "+")
			doc += fmt.Sprintf("  - at: %s\n    for: %s\n    %s\n", at, length, knobs)
		}
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		o, err := s.Execute(Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		var md bytes.Buffer
		if err := o.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		return strings.Split(md.String(), "\n")
	}
	for _, knobs := range []string{"kind: rx-drop\n    drop_prob: 0.5", "kind: core-crash\n    cores: 3"} {
		pair := report(knobs, "1ms+1500us", "2500us+1500us")
		union := report(knobs, "1ms+3ms")
		// The pair's timeline has one row more; everything else matches.
		row := slices.IndexFunc(union, func(l string) bool { return strings.HasPrefix(l, "| 1ms | 4ms |") })
		if row < 0 || len(pair) != len(union)+1 ||
			!slices.Equal(pair[:row], union[:row]) || !slices.Equal(pair[row+2:], union[row+1:]) {
			t.Errorf("%s: touching windows' report differs from the union's beyond the timeline:\n%s\nunion:\n%s",
				knobs, strings.Join(pair, "\n"), strings.Join(union, "\n"))
			continue
		}
		if !strings.HasPrefix(pair[row], "| 1ms | 2.5ms |") || !strings.HasPrefix(pair[row+1], "| 2.5ms | 4ms |") {
			t.Errorf("%s: pair's timeline rows %q, %q", knobs, pair[row], pair[row+1])
		}
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
// seed, conflicting windows never overlapping, overlap bounded.
func TestChaosGeneration(t *testing.T) {
	s, err := Parse([]byte(chaosDoc))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Chaos.generate(42, s.RC.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Chaos.generate(42, s.RC.Duration, 1)
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
	other, err := s.Chaos.generate(43, s.RC.Duration, 1)
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
	// Conflicting windows must not overlap, and at most max_overlap (2)
	// windows are active at once. The most are active at some window's
	// start, so counting the windows active at each start covers every
	// instant.
	spec := s.Chaos.withDefaults(42, s.RC.Duration)
	for i, a := range first {
		active := 0
		for j, b := range first {
			if i != j && a.Conflicts(b) {
				t.Fatalf("conflicting overlap: %+v and %+v", a, b)
			}
			if b.From <= a.From && a.From < b.To {
				active++
			}
		}
		if active > spec.MaxOverlap {
			t.Fatalf("window %d starts with %d concurrent faults (max %d)", i, active, spec.MaxOverlap)
		}
	}
}

// TestFleetChaosTargets pins fleet chaos: the windows are the ones a single
// server gets, and each one's target server comes from a second stream,
// inside the fleet and not all on one server.
func TestFleetChaosTargets(t *testing.T) {
	s, err := Parse([]byte(chaosDoc))
	if err != nil {
		t.Fatal(err)
	}
	single, err := s.Chaos.generate(42, s.RC.Duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := s.Chaos.generate(42, s.RC.Duration, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != len(single) {
		t.Fatalf("%d fleet windows, %d single-server ones", len(fleet), len(single))
	}
	targets := map[int]bool{}
	for i, w := range fleet {
		if w.Server < 0 || w.Server >= 8 {
			t.Fatalf("window %d targets server %d outside a fleet of 8", i, w.Server)
		}
		targets[w.Server] = true
		if single[i].Server != 0 {
			t.Fatalf("single-server window %d targets server %d", i, single[i].Server)
		}
		w.Server = 0
		if w != single[i] {
			t.Fatalf("window %d differs beyond its server: %+v vs %+v", i, w, single[i])
		}
	}
	if len(fleet) > 2 && len(targets) < 2 {
		t.Fatalf("every one of %d windows targets the same server", len(fleet))
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
	if reflect.DeepEqual(a.Windows(), b.Windows()) {
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

// TestFleetReportRunRows pins the fleet config echo in a report's Run
// section: fleet-64 shows its servers, dispatch, wire and link; a podded
// fleet adds its pods, oversubscription and spine wire; a single server
// shows none of them.
func TestFleetReportRunRows(t *testing.T) {
	runRows := func(s *Scenario) map[string]string {
		c, err := s.Compile(Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]string{}
		for _, r := range (&Outcome{Scenario: s, Compiled: c}).buildSections()[0].Rows {
			rows[r[0]] = r[1]
		}
		return rows
	}
	parse := func(doc string) *Scenario {
		s, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	f64, err := Load(filepath.Join("..", "..", "examples", "scenarios", "fleet-64.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	pod := map[string]string{"servers": "8", "dispatch": "least-conn", "wire": "2µs", "link_gbps": "100",
		"pods": "2", "oversub": "2", "spine_wire": "3µs"}
	for _, c := range []struct {
		name string
		s    *Scenario
		want map[string]string
	}{
		{"fleet-64", f64, map[string]string{"servers": "64", "dispatch": "p2c", "wire": "2µs", "link_gbps": "100"}},
		{"podDoc", parse(podDoc), pod},
		{"chaosDoc", parse(chaosDoc), map[string]string{}},
	} {
		rows := runRows(c.s)
		for k := range pod {
			if rows[k] != c.want[k] {
				t.Errorf("%s: Run row %s = %q, want %q", c.name, k, rows[k], c.want[k])
			}
		}
	}
}

// TestClusterScenario parses and lowers a fleet scenario: the run.cluster
// block becomes Config.Cluster, a server-crash event becomes the plan's
// CrashServer events addressed to its server, and execution passes its
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
	want := fault.NewPlan(5).CrashServer(2, sim.Millisecond, 2*sim.Millisecond)
	if !reflect.DeepEqual(c.Cfg.Faults, want) {
		t.Fatalf("server-crash lowered to %+v, want %+v", c.Cfg.Faults, want)
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

// TestClusterScenarioValidation exercises the fleet-specific rejections:
// fleet size, and every event's server index against the run's server
// count, whatever its kind.
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
`, "targets server 1 outside a fleet of 1"},
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
`, "targets server 9 outside a fleet of 4"},
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
    server: 4
`, "targets server 4 outside a fleet of 4"},
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
    kind: rx-drop
    server: -1
`, "negative server -1"},
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
