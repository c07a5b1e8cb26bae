// Package scenario is the simulator's declarative run harness: a YAML
// scenario file describes one run (mode, function, load, duration), a
// schedule of timed fault events and/or a seeded chaos generator that both
// compile onto the fault.Plan chainable API, and a block of assertions
// evaluated against the run's Result, PhaseStats, and telemetry timeline.
// `halsim run scenario.yaml` executes one; `halsim validate scenario.yaml`
// checks it without running.
//
// Everything is deterministic: the chaos generator draws a
// randomized-but-reproducible schedule from the scenario seed, and the
// per-run Markdown/HTML report carries no wall-clock state, so the same
// scenario produces byte-identical reports across runs and across the
// serial/parallel engines.
package scenario

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"halsim/internal/nf"
	"halsim/internal/scenario/yaml"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

// ValidationError marks a scenario that failed schema or plan validation —
// a usage mistake (exit 2 in the CLIs), not a runtime failure.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return e.msg }

func errf(format string, args ...interface{}) error {
	return &ValidationError{msg: "scenario: " + fmt.Sprintf(format, args...)}
}

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string
	Description string

	Run        RunSpec
	Events     []EventSpec
	Chaos      *ChaosSpec
	Assertions []Assertion
}

// RunSpec is the scenario's run template — the knobs `halsim`'s flags
// expose, declaratively.
type RunSpec struct {
	ModeName string
	Mode     server.Mode
	Fn       nf.ID
	FnConfig string

	PipelineOn bool
	Pipeline   nf.ID

	RateGbps float64
	Workload string // "" = constant rate
	Duration sim.Time
	Warmup   sim.Time
	Seed     int64
	Shards   int
	CXL      bool

	SLBCores     int
	SLBFwdThGbps float64

	Functional bool

	// Cluster asks for a fleet: N full servers behind one shared ingress
	// and a modeled ToR fabric (nil = single server).
	Cluster *ClusterSpec

	// Drain keeps the run going past Duration until in-flight packets
	// settle (default: on whenever the scenario injects faults, so the
	// conservation ledger closes exactly).
	Drain    bool
	drainSet bool

	// RateWindow is the delivered-rate series resolution (default
	// Duration/60, floored at 100 µs, whenever the scenario has faults or
	// a recovery_time assertion).
	RateWindow sim.Time

	Telemetry TelemetrySpec
}

// TelemetrySpec opts the run into the observability layer. Prof opts a
// sharded run into the parallel flight recorder; the report then carries a
// "Parallel profile" section (deterministic per shard count, so it is
// excluded from the cross-engine report-identity contract).
type TelemetrySpec struct {
	Timeline       bool
	TimelinePeriod sim.Time
	TraceEvery     int
	Prof           bool
}

// ClusterSpec is the scenario's `run.cluster` block.
type ClusterSpec struct {
	Servers   int
	Dispatch  string   // "" (rr) | rr | p2c | least-conn
	Wire      sim.Time // one-way ToR latency (0 = default 2µs)
	LinkGbps  float64  // per-server link bandwidth (0 = default 100)
	Pods      int      // pods behind ToR uplinks (0/1 = flat star)
	Oversub   float64  // pod uplink oversubscription ratio (0 = 1)
	SpineWire sim.Time // one-way ingress->ToR spine latency (0 = Wire)
}

// EventSpec is one timed fault window of the scenario.
type EventSpec struct {
	At   sim.Time
	For  sim.Time
	Kind string // core-crash | rx-drop | accel-degrade | telemetry-blackout | server-crash
	Side string // snic (default) | host — core-crash and rx-drop only

	Cores    int     // core-crash: cores 0..Cores-1 crash
	DropProb float64 // rx-drop
	Server   int     // server-crash (cluster runs): which server blacks out

	Line int
}

// Known event kinds, in canonical order. server-crash is cluster-only:
// it blacks out one whole server of a fleet.
var eventKinds = []string{"core-crash", "rx-drop", "accel-degrade", "telemetry-blackout", "server-crash"}

// chaosKinds are the kinds the chaos generator may draw: single-server
// faults only (chaos is rejected on fleet runs).
var chaosKinds = eventKinds[:4]

// Parse decodes and validates one scenario document.
func Parse(data []byte) (*Scenario, error) {
	doc, err := yaml.Parse(data)
	if err != nil {
		return nil, &ValidationError{msg: "scenario: " + err.Error()}
	}
	s := &Scenario{}
	if err := checkKeys(doc, "scenario", "name", "description", "run", "events", "chaos", "assertions"); err != nil {
		return nil, err
	}
	if n := doc.Get("name"); n != nil {
		if s.Name, err = n.Scalar(); err != nil {
			return nil, errf("name: %v", err)
		}
	}
	if s.Name == "" {
		return nil, errf("missing required top-level key `name`")
	}
	if n := doc.Get("description"); n != nil {
		if s.Description, err = n.Scalar(); err != nil {
			return nil, errf("description: %v", err)
		}
	}
	if err := s.parseRun(doc.Get("run")); err != nil {
		return nil, err
	}
	if err := s.parseEvents(doc.Get("events")); err != nil {
		return nil, err
	}
	if err := s.parseChaos(doc.Get("chaos")); err != nil {
		return nil, err
	}
	if err := s.parseAssertions(doc.Get("assertions")); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// checkKeys rejects unknown keys in a mapping so typos fail loudly.
func checkKeys(n *yaml.Node, section string, known ...string) error {
	if n == nil {
		return nil
	}
	if n.Kind != yaml.MapNode {
		return errf("%s: line %d: want a mapping, have a %v", section, n.Line, n.Kind)
	}
	for _, k := range n.Keys {
		found := false
		for _, want := range known {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			return errf("%s: line %d: unknown key %q (known: %s)",
				section, n.Get(k).Line, k, strings.Join(known, ", "))
		}
	}
	return nil
}

// dur parses a scalar duration ("500us", "2ms", "1s") into simulated time.
func dur(n *yaml.Node, what string) (sim.Time, error) {
	s, err := n.Scalar()
	if err != nil {
		return 0, errf("%s: %v", what, err)
	}
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, errf("%s: line %d: %q is not a duration (want e.g. 500us, 2ms)", what, n.Line, s)
	}
	return sim.Duration(d), nil
}

// timeRange parses "2ms..8ms" into a [from, to) window.
func timeRange(s string, line int, what string) (from, to sim.Time, err error) {
	lo, hi, ok := strings.Cut(s, "..")
	if !ok {
		return 0, 0, errf("%s: line %d: %q is not a range (want e.g. 2ms..8ms)", what, line, s)
	}
	dl, err1 := time.ParseDuration(strings.TrimSpace(lo))
	dh, err2 := time.ParseDuration(strings.TrimSpace(hi))
	if err1 != nil || err2 != nil {
		return 0, 0, errf("%s: line %d: %q is not a duration range", what, line, s)
	}
	if dh <= dl {
		return 0, 0, errf("%s: line %d: empty range %q", what, line, s)
	}
	return sim.Duration(dl), sim.Duration(dh), nil
}

func (s *Scenario) parseRun(n *yaml.Node) error {
	if n == nil {
		return errf("missing required `run` section")
	}
	if err := checkKeys(n, "run", "mode", "fn", "fn_config", "pipeline", "rate_gbps",
		"workload", "duration", "warmup", "seed", "shards", "cxl", "slb_cores",
		"slb_fwd_th_gbps", "functional", "drain", "rate_window", "telemetry",
		"cluster"); err != nil {
		return err
	}
	r := &s.Run
	// Defaults.
	r.ModeName, r.Mode = "hal", server.HAL
	r.Fn = nf.NAT
	r.Seed = 1
	r.SLBCores, r.SLBFwdThGbps = 4, 20

	var err error
	if v := n.Get("mode"); v != nil {
		name, err := v.Scalar()
		if err != nil {
			return errf("run.mode: %v", err)
		}
		if r.Mode, err = server.ParseMode(name); err != nil {
			return errf("run.mode: line %d: %v", v.Line, err)
		}
		r.ModeName = strings.ToLower(name)
	}
	if v := n.Get("fn"); v != nil {
		name, err := v.Scalar()
		if err != nil {
			return errf("run.fn: %v", err)
		}
		if r.Fn, err = nf.ParseID(name); err != nil {
			return errf("run.fn: line %d: %v", v.Line, err)
		}
	}
	if v := n.Get("fn_config"); v != nil {
		if r.FnConfig, err = v.Scalar(); err != nil {
			return errf("run.fn_config: %v", err)
		}
	}
	if v := n.Get("pipeline"); v != nil {
		name, err := v.Scalar()
		if err != nil {
			return errf("run.pipeline: %v", err)
		}
		if name != "" {
			if r.Pipeline, err = nf.ParseID(name); err != nil {
				return errf("run.pipeline: line %d: %v", v.Line, err)
			}
			r.PipelineOn = true
		}
	}
	if v := n.Get("rate_gbps"); v != nil {
		if r.RateGbps, err = v.Float(); err != nil {
			return errf("run.rate_gbps: %v", err)
		}
	}
	if v := n.Get("workload"); v != nil {
		name, err := v.Scalar()
		if err != nil {
			return errf("run.workload: %v", err)
		}
		if name != "" {
			if _, err := trace.ParseWorkload(strings.ToLower(name)); err != nil {
				return errf("run.workload: line %d: %v", v.Line, err)
			}
			r.Workload = strings.ToLower(name)
		}
	}
	if v := n.Get("duration"); v != nil {
		if r.Duration, err = dur(v, "run.duration"); err != nil {
			return err
		}
	}
	if v := n.Get("warmup"); v != nil {
		if r.Warmup, err = dur(v, "run.warmup"); err != nil {
			return err
		}
	}
	if v := n.Get("seed"); v != nil {
		if r.Seed, err = v.Int64(); err != nil {
			return errf("run.seed: %v", err)
		}
	}
	if v := n.Get("shards"); v != nil {
		sh, err := v.Int64()
		if err != nil {
			return errf("run.shards: %v", err)
		}
		r.Shards = int(sh)
	}
	if v := n.Get("cxl"); v != nil {
		if r.CXL, err = v.Bool(); err != nil {
			return errf("run.cxl: %v", err)
		}
	}
	if v := n.Get("slb_cores"); v != nil {
		c, err := v.Int64()
		if err != nil {
			return errf("run.slb_cores: %v", err)
		}
		r.SLBCores = int(c)
	}
	if v := n.Get("slb_fwd_th_gbps"); v != nil {
		if r.SLBFwdThGbps, err = v.Float(); err != nil {
			return errf("run.slb_fwd_th_gbps: %v", err)
		}
	}
	if v := n.Get("functional"); v != nil {
		if r.Functional, err = v.Bool(); err != nil {
			return errf("run.functional: %v", err)
		}
	}
	if v := n.Get("drain"); v != nil {
		if r.Drain, err = v.Bool(); err != nil {
			return errf("run.drain: %v", err)
		}
		r.drainSet = true
	}
	if v := n.Get("rate_window"); v != nil {
		if r.RateWindow, err = dur(v, "run.rate_window"); err != nil {
			return err
		}
	}
	if v := n.Get("cluster"); v != nil {
		if err := checkKeys(v, "run.cluster", "servers", "dispatch", "wire", "link_gbps", "pods", "oversub", "spine_wire"); err != nil {
			return err
		}
		cl := &ClusterSpec{}
		sv := v.Get("servers")
		if sv == nil {
			return errf("run.cluster: line %d: missing `servers`", v.Line)
		}
		nsrv, err := sv.Int64()
		if err != nil {
			return errf("run.cluster.servers: %v", err)
		}
		cl.Servers = int(nsrv)
		if d := v.Get("dispatch"); d != nil {
			if cl.Dispatch, err = d.Scalar(); err != nil {
				return errf("run.cluster.dispatch: %v", err)
			}
			cl.Dispatch = strings.ToLower(cl.Dispatch)
		}
		if w := v.Get("wire"); w != nil {
			if cl.Wire, err = dur(w, "run.cluster.wire"); err != nil {
				return err
			}
		}
		if g := v.Get("link_gbps"); g != nil {
			if cl.LinkGbps, err = g.Float(); err != nil {
				return errf("run.cluster.link_gbps: %v", err)
			}
		}
		if p := v.Get("pods"); p != nil {
			np, err := p.Int64()
			if err != nil {
				return errf("run.cluster.pods: %v", err)
			}
			cl.Pods = int(np)
		}
		if o := v.Get("oversub"); o != nil {
			if cl.Oversub, err = o.Float(); err != nil {
				return errf("run.cluster.oversub: %v", err)
			}
		}
		if sw := v.Get("spine_wire"); sw != nil {
			if cl.SpineWire, err = dur(sw, "run.cluster.spine_wire"); err != nil {
				return err
			}
		}
		r.Cluster = cl
	}
	if v := n.Get("telemetry"); v != nil {
		if err := checkKeys(v, "run.telemetry", "timeline", "timeline_period", "trace_every", "prof"); err != nil {
			return err
		}
		if t := v.Get("timeline"); t != nil {
			if r.Telemetry.Timeline, err = t.Bool(); err != nil {
				return errf("run.telemetry.timeline: %v", err)
			}
		}
		if t := v.Get("timeline_period"); t != nil {
			if r.Telemetry.TimelinePeriod, err = dur(t, "run.telemetry.timeline_period"); err != nil {
				return err
			}
		}
		if t := v.Get("trace_every"); t != nil {
			e, err := t.Int64()
			if err != nil {
				return errf("run.telemetry.trace_every: %v", err)
			}
			r.Telemetry.TraceEvery = int(e)
		}
		if t := v.Get("prof"); t != nil {
			if r.Telemetry.Prof, err = t.Bool(); err != nil {
				return errf("run.telemetry.prof: %v", err)
			}
		}
	}
	return nil
}

func (s *Scenario) parseEvents(n *yaml.Node) error {
	if n == nil {
		return nil
	}
	if n.Kind != yaml.SeqNode {
		return errf("events: line %d: want a sequence of events, have a %v", n.Line, n.Kind)
	}
	for i, item := range n.Items {
		what := fmt.Sprintf("events[%d]", i)
		if err := checkKeys(item, what, "at", "for", "kind", "side", "cores", "drop_prob", "server"); err != nil {
			return err
		}
		ev := EventSpec{Line: item.Line, Side: "snic", Cores: 2, DropProb: 0.2}
		var err error
		at := item.Get("at")
		if at == nil {
			return errf("%s: line %d: missing `at`", what, item.Line)
		}
		if ev.At, err = dur(at, what+".at"); err != nil {
			return err
		}
		forN := item.Get("for")
		if forN == nil {
			return errf("%s: line %d: missing `for` (the fault window's length)", what, item.Line)
		}
		if ev.For, err = dur(forN, what+".for"); err != nil {
			return err
		}
		kindN := item.Get("kind")
		if kindN == nil {
			return errf("%s: line %d: missing `kind`", what, item.Line)
		}
		if ev.Kind, err = kindN.Scalar(); err != nil {
			return errf("%s.kind: %v", what, err)
		}
		if v := item.Get("side"); v != nil {
			side, err := v.Scalar()
			if err != nil {
				return errf("%s.side: %v", what, err)
			}
			if side != "snic" && side != "host" {
				return errf("%s.side: line %d: want snic or host, have %q", what, v.Line, side)
			}
			if ev.Kind != "core-crash" && ev.Kind != "rx-drop" {
				return errf("%s.side: line %d: `side` only applies to core-crash and rx-drop", what, v.Line)
			}
			ev.Side = side
		}
		if v := item.Get("cores"); v != nil {
			if ev.Kind != "core-crash" {
				return errf("%s.cores: line %d: `cores` only applies to core-crash", what, v.Line)
			}
			c, err := v.Int64()
			if err != nil {
				return errf("%s.cores: %v", what, err)
			}
			ev.Cores = int(c)
		}
		if v := item.Get("drop_prob"); v != nil {
			if ev.Kind != "rx-drop" {
				return errf("%s.drop_prob: line %d: `drop_prob` only applies to rx-drop", what, v.Line)
			}
			if ev.DropProb, err = v.Float(); err != nil {
				return errf("%s.drop_prob: %v", what, err)
			}
		}
		if v := item.Get("server"); v != nil {
			if ev.Kind != "server-crash" {
				return errf("%s.server: line %d: `server` only applies to server-crash", what, v.Line)
			}
			srv, err := v.Int64()
			if err != nil {
				return errf("%s.server: %v", what, err)
			}
			ev.Server = int(srv)
		}
		s.Events = append(s.Events, ev)
	}
	return nil
}

// Validate checks cross-field consistency — durations, event windows inside
// the run, chaos knobs, assertion windows — then dry-run compiles, so every
// input the server or fleet would reject fails here as a ValidationError.
// Parse calls it; callers building or mutating a Scenario programmatically
// (halsim's flag path does) call it before Compile.
func (s *Scenario) Validate() error {
	r := &s.Run
	if r.Duration <= 0 {
		return errf("run.duration: must be positive (have %v)", r.Duration)
	}
	if r.RateGbps <= 0 && r.Workload == "" {
		return errf("run: need rate_gbps > 0 or a workload")
	}
	if r.Warmup < 0 || r.Warmup >= r.Duration {
		if r.Warmup != 0 {
			return errf("run.warmup: %v outside [0, duration)", r.Warmup)
		}
	}
	for i, ev := range s.Events {
		what := fmt.Sprintf("events[%d]", i)
		if ev.Line > 0 {
			what += fmt.Sprintf(" (line %d)", ev.Line)
		}
		if !slices.Contains(eventKinds, ev.Kind) {
			return errf("%s: unknown kind %q (want %s)", what, ev.Kind, strings.Join(eventKinds, ", "))
		}
		if ev.At <= 0 {
			return errf("%s: `at` must be positive, have %v", what, ev.At)
		}
		if ev.For <= 0 {
			return errf("%s: `for` must be positive, have %v", what, ev.For)
		}
		if ev.At >= r.Duration {
			return errf("%s: starts at %v, past the run's duration %v", what, ev.At, r.Duration)
		}
		if ev.Kind == "core-crash" && ev.Cores <= 0 {
			return errf("%s: core-crash needs cores >= 1, have %d", what, ev.Cores)
		}
		if ev.Kind == "rx-drop" && (ev.DropProb <= 0 || ev.DropProb > 1) {
			return errf("%s: rx-drop needs drop_prob in (0, 1], have %g", what, ev.DropProb)
		}
		if ev.Kind == "accel-degrade" && ev.Side == "host" {
			return errf("%s: accel-degrade targets the SNIC accelerator", what)
		}
		if ev.Kind == "server-crash" {
			if r.Cluster == nil {
				return errf("%s: server-crash needs a run.cluster block", what)
			}
		} else if r.Cluster != nil {
			return errf("%s: %s targets a single server's internals; fleet runs only take server-crash events", what, ev.Kind)
		}
	}
	if r.Cluster != nil {
		if s.Chaos != nil {
			return errf("chaos: not supported with run.cluster (chaos draws single-server faults)")
		}
		if r.Telemetry.TraceEvery > 0 {
			return errf("run.telemetry.trace_every: packet tracing is not supported with run.cluster")
		}
	}
	if s.Chaos != nil {
		if err := s.Chaos.validate(r.Duration); err != nil {
			return err
		}
	}
	for i := range s.Assertions {
		if err := s.Assertions[i].validate(i, r.Duration); err != nil {
			return err
		}
	}
	// A dry-run compile catches everything else: the fault plan's checks
	// and the server's and fleet's own config checks.
	_, err := s.Compile(Overrides{})
	return err
}
