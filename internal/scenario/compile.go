package scenario

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

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
	// Seed and Shards are the effective values after overrides.
	Seed   int64
	Shards int

	scenario *Scenario
}

// Windows are the run's fault windows — explicit events and generated
// chaos draws — sorted by start time: the plan's windows, nil without
// faults.
func (c *Compiled) Windows() []fault.Window {
	if c.Cfg.Faults == nil {
		return nil
	}
	return c.Cfg.Faults.Windows
}

// faultSpan returns the [earliest start, latest end] of the fault windows;
// ok is false without faults.
func (c *Compiled) faultSpan() (from, to sim.Time, ok bool) {
	ws := c.Windows()
	if len(ws) == 0 {
		return 0, 0, false
	}
	from, to = ws[0].From, 0
	for _, w := range ws {
		from, to = min(from, w.From), max(to, w.To)
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

	// Fault windows: explicit events first, then the chaos draws, sorted
	// by start time; a window reaching past the end of the run ends with
	// it.
	evs := slices.Clone(s.Events)
	if s.Chaos != nil {
		servers := 1
		if s.Cfg.Cluster != nil {
			servers = s.Cfg.Cluster.Servers
		}
		chaotic, err := s.Chaos.generate(c.Seed, r.Duration, servers)
		if err != nil {
			return nil, err
		}
		for _, w := range chaotic {
			evs = append(evs, EventSpec{Window: w})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].From < evs[j].From })

	if len(evs) > 0 {
		plan := fault.NewPlan(c.Seed)
		for _, ev := range evs {
			ev.To = min(ev.To, r.Duration)
			plan.Windows = append(plan.Windows, ev.Window)
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
		return nil, errf("%v%s", err, lines(err, evs))
	}
	if cfg.Cluster != nil {
		if _, err := cfg.Cluster.WithDefaults(); err != nil {
			return nil, errf("%v", err)
		}
	}
	return c, nil
}

// lines names the file lines of the windows a fault plan error points at.
func lines(err error, evs []EventSpec) string {
	var fe *fault.ValidationError
	var at []string
	for i := 0; errors.As(err, &fe) && i < len(fe.Windows); i++ {
		if l := evs[fe.Windows[i]].Line; l > 0 {
			at = append(at, fmt.Sprintf("line %d", l))
		}
	}
	if len(at) == 0 {
		return ""
	}
	return " (events at " + strings.Join(at, " and ") + ")"
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
