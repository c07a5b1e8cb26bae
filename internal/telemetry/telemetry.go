// Package telemetry is the simulator's opt-in observability layer: a
// ring-buffered time-series collector (Fig. 9-style Fwd_Th / rate / queue /
// power trajectories), a deterministic sampled packet-lifecycle tracer that
// exports Chrome trace-event JSON loadable in Perfetto, and a static
// counter/gauge registry with Prometheus-style text exposition.
//
// Design constraints, in order of importance:
//
//  1. Zero cost when disabled. Every hook point in the simulator is a
//     nil-checked struct field — never an interface call — so a run without
//     telemetry executes the exact event sequence, RNG draw order, and
//     allocation profile it did before this package existed.
//  2. Pure observation when enabled. Collectors only read simulator state
//     (cumulative counters, queue occupancies, policy registers) and keep
//     their own window deltas, so enabling telemetry cannot change a run's
//     Result: same seed ⇒ byte-identical metrics with telemetry on or off.
//  3. Deterministic artifacts. The packet sampler keys on packet IDs, the
//     exports carry no wall-clock timestamps, and every number formats
//     through a deterministic path, so same seed ⇒ identical timeline CSV
//     and trace JSON bytes across runs.
package telemetry

import "halsim/internal/sim"

// Defaults for Config's zero fields.
const (
	DefaultTimelinePeriod = 100 * sim.Microsecond
	DefaultTraceEvery     = 64
)

// Collector bounds. TimelineCap bounds the sample ring; once full the
// oldest samples are overwritten so a long run keeps its most recent
// window. TraceCap bounds retained span events; once full, further events
// are counted as truncated rather than recorded.
const (
	TimelineCap = 1 << 16
	TraceCap    = 1 << 18
)

// Config selects which collectors a run builds. The zero value disables
// everything (the Collector stays nil-free of charge); set Timeline and/or
// TraceEvery to opt in.
type Config struct {
	// Timeline enables the per-tick time-series collector.
	Timeline bool
	// TimelinePeriod is the sampling tick (default 100 µs, the same
	// resolution as the power sampler, fine enough to watch the LBP's
	// 100 µs ticks move Fwd_Th).
	TimelinePeriod sim.Time

	// TraceEvery enables packet-lifecycle tracing of one packet in every
	// TraceEvery (deterministic: packet IDs congruent to 1 modulo
	// TraceEvery are sampled, so the same seed replays the same spans).
	// 0 disables tracing; 1 traces every packet.
	TraceEvery int

	// Prof opts a sharded fleet (Config.Cluster with Config.Shards > 1)
	// into the flight recorder (telemetry/prof): per-LP window spans with
	// stall attribution, InjectBatch sizes, and wheel counters, surfaced
	// as Result.Prof. Serial runs — a
	// single server or a serial fleet — accept and ignore it: the recorder
	// measures the parallel engine itself. Like
	// every collector it is read-only: the simulation's Result and the
	// default artifacts are byte-identical with it on or off.
	Prof bool

	// Registry, when non-nil, is an externally owned metric registry the
	// run publishes into (the -telemetry-addr HTTP endpoint shares one
	// registry between the simulation loop and the exposition server).
	// nil gives the Collector a private registry.
	Registry *Registry
}

// WithDefaults returns c with zero fields filled in — the effective
// configuration New builds from.
func (c Config) WithDefaults() Config {
	if c.TimelinePeriod <= 0 {
		c.TimelinePeriod = DefaultTimelinePeriod
	}
	return c
}

// Enabled reports whether the config asks for any collector at all.
func (c Config) Enabled() bool {
	return c.Timeline || c.TraceEvery > 0 || c.Registry != nil
}

// Collector bundles a run's enabled collectors. Disabled parts stay nil, so
// hook sites nil-check the specific collector they feed.
type Collector struct {
	Timeline *Timeline
	Tracer   *Tracer
	Registry *Registry
	metrics  *metrics
	events   uint64 // Sample.Events published so far
}

// New builds the collectors cfg asks for and registers the halsim_*
// metric set on the registry. A config asking for nothing returns nil,
// which every hook site treats as "telemetry off".
func New(cfg Config) *Collector {
	cfg = cfg.WithDefaults()
	if !cfg.Enabled() {
		return nil
	}
	c := &Collector{Registry: cfg.Registry}
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	c.metrics = newMetrics(c.Registry)
	if cfg.Timeline {
		c.Timeline = NewTimeline(cfg.TimelinePeriod, TimelineCap)
	}
	if cfg.TraceEvery > 0 {
		c.Tracer = NewTracer(cfg.TraceEvery, TraceCap)
	}
	return c
}
