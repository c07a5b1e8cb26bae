package scenario

import (
	"fmt"
	"sort"

	"halsim/internal/cluster"
	"halsim/internal/fault"
	"halsim/internal/server"
	"halsim/internal/sim"
)

// Overrides are the CLI-side knobs that may vary without editing the
// scenario file. Zero values defer to the scenario.
type Overrides struct {
	Seed   int64 // non-zero replaces run.seed (and a chaos seed inheriting it)
	Shards int   // non-zero replaces run.shards
}

// Compiled is a scenario lowered onto the simulator's native inputs.
type Compiled struct {
	Cfg server.Config
	RC  server.RunConfig
	// FaultWindows are the scenario's fault windows — explicit events
	// followed by generated chaos draws — sorted by start time. The
	// report renders these; assertions derive the fault span from them.
	FaultWindows []EventSpec
	// Seed and Shards are the effective values after overrides.
	Seed   int64
	Shards int

	scenario *Scenario
}

// faultSpan returns the [earliest start, latest end] of the fault windows,
// clamped to the run duration; ok is false without faults.
func (c *Compiled) faultSpan() (from, to sim.Time, ok bool) {
	if len(c.FaultWindows) == 0 {
		return 0, 0, false
	}
	from, to = c.FaultWindows[0].At, 0
	for _, w := range c.FaultWindows {
		if w.At < from {
			from = w.At
		}
		if end := w.At + w.For; end > to {
			to = end
		}
	}
	if to > c.RC.Duration {
		to = c.RC.Duration
	}
	return from, to, true
}

// Compile completes a copy of the scenario's run template — overrides,
// the fault plan, phase marks, drain, the rate window and the timeline —
// and validates it. It is pure: no simulation runs, so
// `halsim validate` uses it too.
func (s *Scenario) Compile(ov Overrides) (*Compiled, error) {
	c := &Compiled{Cfg: s.Cfg, RC: s.RC, Seed: s.Cfg.Seed, Shards: s.Cfg.Shards, scenario: s}
	if ov.Seed != 0 {
		c.Seed = ov.Seed
	}
	if ov.Shards != 0 {
		c.Shards = ov.Shards
	}
	if c.Shards > 1 && s.Cfg.Cluster == nil {
		return nil, errf("%d shards without a cluster: block; shards apply to fleets, a single server runs serially", c.Shards)
	}
	c.Cfg.Seed, c.Cfg.Shards = c.Seed, c.Shards
	if c.Cfg.Mode != server.SLB && c.Cfg.Mode != server.SLBHost {
		// Only the software balancer has forwarding cores and a threshold.
		c.Cfg.SLBCores, c.Cfg.SLBFwdThGbps = 0, 0
	}
	r := &s.RC

	// Fault windows: explicit events first, then the chaos draws.
	c.FaultWindows = append(c.FaultWindows, s.Events...)
	if s.Chaos != nil {
		servers := 1
		if s.Cfg.Cluster != nil {
			servers = s.Cfg.Cluster.Servers
		}
		chaotic, err := s.Chaos.generate(c.Seed, r.Duration, servers)
		if err != nil {
			return nil, err
		}
		c.FaultWindows = append(c.FaultWindows, chaotic...)
	}
	sort.SliceStable(c.FaultWindows, func(i, j int) bool {
		return c.FaultWindows[i].At < c.FaultWindows[j].At
	})

	if len(c.FaultWindows) > 0 {
		plan := fault.NewPlan(c.Seed)
		for i, w := range c.FaultWindows {
			if err := compileWindow(plan, w, r.Duration); err != nil {
				return nil, fmt.Errorf("fault window %d: %w", i, err)
			}
		}
		c.Cfg.Faults = plan

		// Phase marks bracket the overall fault span (before | during |
		// after); a span reaching the end of the run has no after phase.
		from, to, _ := c.faultSpan()
		if to >= r.Duration {
			c.RC.PhaseMarks = []sim.Time{from}
		} else {
			c.RC.PhaseMarks = []sim.Time{from, to}
		}
		// Fault runs drain by default so the conservation ledger closes.
		if !s.drainSet {
			c.RC.Drain = true
		}
		// Delivered-rate series: on for every fault run (the recovery
		// signal and the report's rate table) at r.Duration/60, floored at
		// 100 µs.
		if c.RC.RateWindow == 0 {
			c.RC.RateWindow = r.Duration / 60
			if c.RC.RateWindow < 100*sim.Microsecond {
				c.RC.RateWindow = 100 * sim.Microsecond
			}
		}
	}

	// A windowed assertion needs per-tick samples: turn the timeline on.
	for _, a := range s.Assertions {
		if a.WindowTo > 0 {
			c.Cfg.Telemetry.Timeline = true
		}
	}

	// The simulator's own checks are the validator: whatever the server or
	// the fleet would reject at run time is a validation error here, before
	// anything runs. Both work on copies; Run normalizes again.
	cfg, rc := c.Cfg, c.RC
	if err := server.Normalize(&cfg, &rc); err != nil {
		return nil, errf("%v", err)
	}
	if cfg.Cluster != nil {
		if _, err := cfg.Cluster.WithDefaults(); err != nil {
			return nil, errf("%v", err)
		}
	}
	return c, nil
}

// compileWindow lowers one fault window onto the plan's chainable API and
// addresses its events to the window's server.
func compileWindow(p *fault.Plan, w EventSpec, duration sim.Time) error {
	from, to := w.At, w.At+w.For
	if to > duration {
		// A window reaching past the end never clears: recovery events
		// land at the finish line (the server rejects events beyond it).
		to = duration
	}
	n := len(p.Events)
	switch w.Kind {
	case "core-crash":
		if w.Side == "host" {
			for c := 0; c < w.Cores; c++ {
				p.CrashHostCore(from, c)
				p.RecoverHostCore(to, c)
			}
		} else {
			p.CrashSNICCores(from, to, w.Cores)
		}
	case "rx-drop":
		if w.Side == "host" {
			p.DropHostRx(from, to, w.DropProb)
		} else {
			p.DropSNICRx(from, to, w.DropProb)
		}
	case "accel-degrade":
		p.DegradeSNICAccel(from, to)
	case "telemetry-blackout":
		p.BlackoutTelemetry(from, to)
	case "server-crash":
		p.CrashServer(w.Server, from, to)
	default:
		return errf("unknown fault kind %q", w.Kind)
	}
	for i := n; i < len(p.Events); i++ {
		p.Events[i].Server = w.Server
	}
	return nil
}

// describe renders one fault window for reports and summaries.
func (w EventSpec) describe() string {
	switch w.Kind {
	case "core-crash":
		return fmt.Sprintf("crash %d %s core(s)", w.Cores, w.Side)
	case "rx-drop":
		return fmt.Sprintf("%s rx-drop p=%.3f", w.Side, w.DropProb)
	case "accel-degrade":
		return "snic accel degrade to software path"
	case "telemetry-blackout":
		return "lbp telemetry blackout"
	case "server-crash":
		return fmt.Sprintf("server %d blackout", w.Server)
	default:
		return w.Kind
	}
}

// Outcome is one executed scenario: the compiled inputs, the run's Result,
// and every assertion's verdict.
type Outcome struct {
	Scenario *Scenario
	Compiled *Compiled
	Result   server.Result
	Checks   []Check
	// Passed is true when every assertion held.
	Passed bool
}

// Execute compiles and runs the scenario, then evaluates its assertions.
// Run errors (as opposed to assertion failures) come back as the error.
func (s *Scenario) Execute(ov Overrides) (*Outcome, error) {
	comp, err := s.Compile(ov)
	if err != nil {
		return nil, err
	}
	return comp.Run()
}

// Run executes the compiled inputs — a fleet through the cluster runner,
// anything else as one server — and evaluates the scenario's assertions.
func (c *Compiled) Run() (*Outcome, error) {
	s := c.scenario
	run := server.Run
	if c.Cfg.Cluster != nil {
		run = cluster.Run
	}
	res, err := run(c.Cfg, c.RC)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	o := &Outcome{Scenario: s, Compiled: c, Result: res}
	o.Checks = evaluate(s.Assertions, c, res)
	o.Passed = true
	for _, c := range o.Checks {
		if !c.Pass {
			o.Passed = false
		}
	}
	return o, nil
}
