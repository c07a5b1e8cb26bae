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

	"halsim/internal/cxl"
	"halsim/internal/fault"
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

	// Cfg and RC are the run template: the simulator's own configuration,
	// which Compile copies and completes with the overrides, the fault
	// schedule, phase marks, drain, the rate window and the timeline.
	Cfg server.Config
	RC  server.RunConfig
	// drainSet records an explicit `drain:`; without one a run with
	// faults drains, so the conservation ledger closes exactly.
	drainSet bool

	Events     []EventSpec
	Chaos      *ChaosSpec
	Assertions []Assertion
}

// EventSpec is one fault window of the scenario file, with the line it
// was written on (0 for a window from the flags).
type EventSpec struct {
	fault.Window
	Line int
}

// chaosKinds are the kinds the chaos generator may draw: the faults inside
// one server. Whole-server blackouts are scheduled as events.
var chaosKinds = []fault.Kind{fault.CoreCrash, fault.RxDrop, fault.AccelDegrade, fault.TelemetryBlackout}

// Parse decodes and validates one scenario document.
func Parse(data []byte) (*Scenario, error) {
	doc, err := yaml.Parse(data)
	if err != nil {
		return nil, &ValidationError{msg: "scenario: " + err.Error()}
	}
	s := &Scenario{Cfg: server.Config{Mode: server.HAL, Fn: nf.NAT, Seed: 1, SLBCores: 4, SLBFwdThGbps: 20}}
	if err := decode(doc, topSection, s.keys()); err != nil {
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

// keys is the document's table.
func (s *Scenario) keys() []key {
	return []key{
		{name: "name", need: "missing required top-level key `%[3]s`", bind: func(n *yaml.Node, what string) error {
			if err := str(&s.Name)(n, what); err != nil || s.Name != "" {
				return err
			}
			return errMissing
		}},
		{name: "description", bind: str(&s.Description)},
		{name: "run", need: "missing required `%[3]s` section", bind: func(n *yaml.Node, what string) error {
			return decode(n, what, s.runKeys())
		}},
		{name: "events", bind: items(func(item *yaml.Node, what string) error {
			ev := EventSpec{Line: item.Line}
			if err := decode(item, what, ev.keys()); err != nil {
				return err
			}
			s.Events = append(s.Events, ev)
			return nil
		})},
		{name: "chaos", bind: func(n *yaml.Node, what string) error {
			s.Chaos = &ChaosSpec{Line: n.Line}
			return decode(n, what, s.Chaos.keys())
		}},
		{name: "assertions", bind: items(func(item *yaml.Node, what string) error {
			a := Assertion{Line: item.Line}
			if err := decode(item, what, a.keys()); err != nil {
				return err
			}
			s.Assertions = append(s.Assertions, a)
			return nil
		})},
	}
}

// runKeys is the `run` section's table, onto the template's Cfg and RC.
func (s *Scenario) runKeys() []key {
	c, r := &s.Cfg, &s.RC
	return []key{
		{name: "mode", bind: scalar(func(v string) (err error) { c.Mode, err = server.ParseMode(v); return err })},
		{name: "fn", bind: scalar(func(v string) (err error) { c.Fn, err = nf.ParseID(v); return err })},
		{name: "fn_config", bind: str(&c.FnConfig)},
		{name: "pipeline", bind: scalar(func(v string) (err error) {
			if v != "" {
				c.Pipeline, err = nf.ParseID(v)
				c.PipelineOn = err == nil
			}
			return err
		})},
		{name: "rate_gbps", bind: float(&r.RateGbps)},
		{name: "workload", bind: scalar(func(v string) error {
			if v == "" {
				return nil
			}
			w, err := trace.ParseWorkload(strings.ToLower(v))
			if err == nil {
				r.Workload = &w
			}
			return err
		})},
		{name: "duration", bind: duration(&r.Duration)},
		{name: "warmup", bind: duration(&r.Warmup)},
		{name: "seed", bind: integer64(&c.Seed)},
		{name: "shards", bind: integer(&c.Shards)},
		{name: "cxl", bind: func(n *yaml.Node, what string) error {
			var on bool
			err := boolean(&on)(n, what)
			if on {
				c.Fabric = cxl.CXL
			}
			return err
		}},
		{name: "slb_cores", bind: integer(&c.SLBCores)},
		{name: "slb_fwd_th_gbps", bind: float(&c.SLBFwdThGbps)},
		{name: "functional", bind: boolean(&c.Functional)},
		{name: "drain", bind: func(n *yaml.Node, what string) error {
			s.drainSet = true
			return boolean(&r.Drain)(n, what)
		}},
		{name: "rate_window", bind: duration(&r.RateWindow)},
		{name: "telemetry", bind: func(n *yaml.Node, what string) error {
			t := &c.Telemetry
			return decode(n, what, []key{
				{name: "timeline", bind: boolean(&t.Timeline)},
				{name: "timeline_period", bind: duration(&t.TimelinePeriod)},
				{name: "trace_every", bind: integer(&t.TraceEvery)},
				{name: "prof", bind: boolean(&t.Prof)},
			})
		}},
		{name: "cluster", bind: func(n *yaml.Node, what string) error {
			cl := &server.ClusterConfig{}
			c.Cluster = cl
			return decode(n, what, []key{
				{name: "servers", bind: integer(&cl.Servers), need: missingKey},
				{name: "dispatch", bind: lower(&cl.Dispatch)},
				{name: "wire", bind: duration(&cl.WireNS)},
				{name: "link_gbps", bind: float(&cl.LinkGbps)},
				{name: "pods", bind: integer(&cl.Pods)},
				{name: "oversub", bind: float(&cl.Oversub)},
				{name: "spine_wire", bind: duration(&cl.SpineWireNS)},
			})
		}},
	}
}

// keys is one event's table; side, cores and drop_prob apply to some kinds
// only, so kind binds first, with the defaults of its knobs. server
// applies to every kind.
func (ev *EventSpec) keys() []key {
	only := func(kinds ...string) binder {
		return func(n *yaml.Node, what string) error {
			if slices.Contains(kinds, ev.Kind.String()) {
				return nil
			}
			return errf("%s: line %d: `%s` only applies to %s",
				what, n.Line, what[strings.LastIndexByte(what, '.')+1:], strings.Join(kinds, " and "))
		}
	}
	return []key{
		{name: "at", bind: duration(&ev.From), need: missingKey},
		{name: "for", bind: func(n *yaml.Node, what string) error {
			var length sim.Time
			err := duration(&length)(n, what)
			ev.To = ev.From + length
			return err
		}, need: missingKey + " (the fault window's length)"},
		{name: "kind", bind: scalar(func(v string) (err error) {
			ev.Kind, err = fault.ParseKind(v)
			switch ev.Kind {
			case fault.CoreCrash:
				ev.Cores = 2
			case fault.RxDrop:
				ev.DropProb = 0.2
			}
			return err
		}), need: missingKey},
		{name: "side", bind: both(only("core-crash", "rx-drop"), scalar(func(v string) error {
			if v != "snic" && v != "host" {
				return fmt.Errorf("want snic or host, have %q", v)
			}
			ev.Host = v == "host"
			return nil
		}))},
		{name: "cores", bind: both(only("core-crash"), integer(&ev.Cores))},
		{name: "drop_prob", bind: both(only("rx-drop"), float(&ev.DropProb))},
		{name: "server", bind: integer(&ev.Server)},
	}
}

// Validate checks cross-field consistency — durations, chaos knobs,
// assertion windows — then dry-run compiles, so every
// input the server or fleet would reject fails here as a ValidationError.
// Parse calls it; callers building or mutating a Scenario programmatically
// (halsim's flag path does) call it before Compile.
func (s *Scenario) Validate() error {
	r := &s.RC
	if r.Duration <= 0 {
		return errf("run.duration: must be positive (have %v)", r.Duration)
	}
	if r.RateGbps <= 0 && r.Workload == nil {
		return errf("run: need rate_gbps > 0 or a workload")
	}
	if r.Warmup < 0 || r.Warmup >= r.Duration {
		if r.Warmup != 0 {
			return errf("run.warmup: %v outside [0, duration)", r.Warmup)
		}
	}
	if s.Cfg.Cluster != nil && s.Cfg.Telemetry.TraceEvery > 0 {
		return errf("run.telemetry.trace_every: packet tracing is not supported with run.cluster")
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
	// A dry-run compile catches everything else: the fault windows' checks
	// and the server's and fleet's own config checks.
	_, err := s.Compile(Overrides{})
	return err
}
