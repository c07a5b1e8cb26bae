package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/stats"
	"halsim/internal/telemetry"
)

// Assertion is one declarative check over a run's outcome. Three metric
// classes exist:
//
//   - result metrics (whole-run scalars from Result: avg_gbps,
//     p99_latency_us, recovery_time, conservation, ...);
//   - phase metrics (`phase: before|during|after` picks one PhaseStats of a
//     fault run);
//   - window metrics (`during: 2ms..8ms` aggregates per-tick timeline
//     samples with `agg: min|max|avg`; the compiler turns the timeline on
//     automatically).
type Assertion struct {
	Metric string
	Op     string // <= | < | >= | > | == | !=

	// Value is the numeric bound; duration-valued metrics parse it from a
	// duration literal into nanoseconds. RawValue preserves the source
	// spelling for the report.
	Value    float64
	RawValue string

	// Phase selects one PhaseStats ("before", "during", "after", or an
	// index) for the phase metric class.
	Phase string

	// WindowFrom/WindowTo scope a timeline-window assertion; Agg picks
	// the aggregate (default avg).
	WindowFrom, WindowTo sim.Time
	Agg                  string

	Line int
}

// Check is one evaluated assertion.
type Check struct {
	Assertion
	// Observed is the measured value (duration metrics: nanoseconds).
	Observed float64
	// ObservedText is the measured value rendered for the report — always
	// set, even when the metric could not be computed.
	ObservedText string
	Pass         bool
	// Detail explains a failure beyond the comparison (e.g. "never
	// recovered within the run").
	Detail string
}

// String renders the assertion in its source shape.
func (a Assertion) String() string {
	s := fmt.Sprintf("%s %s %s", a.Metric, a.Op, a.RawValue)
	if a.Phase != "" {
		s += " phase " + a.Phase
	}
	if a.WindowTo > 0 {
		s += fmt.Sprintf(" during %v..%v", a.WindowFrom, a.WindowTo)
		if a.Agg != "" {
			s += " (" + a.Agg + ")"
		}
	}
	return s
}

// resultMetrics maps whole-run metric names onto Result fields.
var resultMetrics = map[string]func(server.Result) float64{
	"offered_gbps":     func(r server.Result) float64 { return r.OfferedGbps },
	"avg_gbps":         func(r server.Result) float64 { return r.AvgGbps },
	"max_gbps":         func(r server.Result) float64 { return r.MaxGbps },
	"p50_latency_us":   func(r server.Result) float64 { return r.P50us },
	"p99_latency_us":   func(r server.Result) float64 { return r.P99us },
	"p999_latency_us":  func(r server.Result) float64 { return r.P999us },
	"avg_power_w":      func(r server.Result) float64 { return r.AvgPowerW },
	"eff_gbps_per_w":   func(r server.Result) float64 { return r.EffGbpsPerW },
	"drop_fraction":    func(r server.Result) float64 { return r.DropFraction },
	"snic_share":       func(r server.Result) float64 { return r.SNICShare },
	"fwd_th_final":     func(r server.Result) float64 { return r.FinalFwdTh },
	"lbp_adjustments":  func(r server.Result) float64 { return float64(r.LBPAdjustments) },
	"wakeups":          func(r server.Result) float64 { return float64(r.Wakeups) },
	"sent":             func(r server.Result) float64 { return float64(r.SentAll) },
	"completed":        func(r server.Result) float64 { return float64(r.CompletedAll) },
	"dropped":          func(r server.Result) float64 { return float64(r.DroppedAll) },
	"in_flight":        func(r server.Result) float64 { return float64(r.InFlightEnd) },
	"fault_events":     func(r server.Result) float64 { return float64(r.FaultEvents) },
	"fault_drops":      func(r server.Result) float64 { return float64(r.FaultDrops) },
	"requeued":         func(r server.Result) float64 { return float64(r.Requeued) },
	"core_crashes":     func(r server.Result) float64 { return float64(r.CoreCrashes) },
	"lbp_holds":        func(r server.Result) float64 { return float64(r.LBPHolds) },
	"func_errors":      func(r server.Result) float64 { return float64(r.FuncErrors) },
	"coherence_remote": func(r server.Result) float64 { return float64(r.CoherenceRemote) },
}

// windowMetrics maps timeline-window metric names onto Sample fields.
var windowMetrics = map[string]func(telemetry.Sample) float64{
	"fwd_th_gbps":    func(s telemetry.Sample) float64 { return s.FwdThGbps },
	"rate_rx_gbps":   func(s telemetry.Sample) float64 { return s.RateRxGbps },
	"rate_fwd_gbps":  func(s telemetry.Sample) float64 { return s.RateFwdGbps },
	"snic_tp_gbps":   func(s telemetry.Sample) float64 { return s.SNICTPGbps },
	"snic_gbps":      func(s telemetry.Sample) float64 { return s.SNICGbps },
	"host_gbps":      func(s telemetry.Sample) float64 { return s.HostGbps },
	"delivered_gbps": func(s telemetry.Sample) float64 { return s.SNICGbps + s.HostGbps },
	"power_w":        func(s telemetry.Sample) float64 { return s.PowerW },
	"p99_window_us":  func(s telemetry.Sample) float64 { return s.P99WindowUs },
	"snic_occ_max":   func(s telemetry.Sample) float64 { return float64(s.SNICOccMax) },
	"host_occ_max":   func(s telemetry.Sample) float64 { return float64(s.HostOccMax) },
	"snic_backlog":   func(s telemetry.Sample) float64 { return float64(s.SNICBacklog) },
	"host_backlog":   func(s telemetry.Sample) float64 { return float64(s.HostBacklog) },
	"snic_busy":      func(s telemetry.Sample) float64 { return float64(s.SNICBusy) },
	"host_busy":      func(s telemetry.Sample) float64 { return float64(s.HostBusy) },
}

// phaseMetrics maps phase metric names onto PhaseStats fields.
var phaseMetrics = map[string]func(server.PhaseStats) float64{
	"avg_gbps":       func(p server.PhaseStats) float64 { return p.AvgGbps },
	"p99_latency_us": func(p server.PhaseStats) float64 { return p.P99us },
	"avg_power_w":    func(p server.PhaseStats) float64 { return p.AvgPowerW },
	"eff_gbps_per_w": func(p server.PhaseStats) float64 { return p.EffGbpsPerW },
	"completed":      func(p server.PhaseStats) float64 { return float64(p.Completed) },
}

// durationMetrics are result metrics whose values are durations
// (nanoseconds internally, duration literals in the file).
var durationMetrics = map[string]bool{
	"recovery_time": true,
}

// specialMetrics are result metrics with bespoke evaluation.
var specialMetrics = map[string]bool{
	"recovery_time":  true,
	"conservation":   true,
	"failover_ticks": true,
}

// knownMetricNames returns every metric name, sorted, for error messages.
func knownMetricNames() []string {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for n := range resultMetrics {
		add(n)
	}
	for n := range windowMetrics {
		add(n)
	}
	for n := range phaseMetrics {
		add(n)
	}
	add("recovery_time")
	add("conservation")
	add("failover_ticks")
	sort.Strings(names)
	return names
}

var validOps = map[string]bool{"<": true, "<=": true, ">": true, ">=": true, "==": true, "!=": true}

// keys is one assertion's table.
func (a *Assertion) keys() []key {
	return []key{
		{name: "metric", bind: str(&a.Metric), need: missingKey},
		{name: "op", bind: str(&a.Op), need: missingKey},
		{name: "value", bind: str(&a.RawValue), need: missingKey},
		{name: "phase", bind: str(&a.Phase)},
		{name: "during", bind: span(&a.WindowFrom, &a.WindowTo)},
		{name: "agg", bind: str(&a.Agg)},
	}
}

// validate checks one assertion's shape at parse time.
func (a *Assertion) validate(i int, duration sim.Time) error {
	what := fmt.Sprintf("assertions[%d] (line %d)", i, a.Line)
	if !validOps[a.Op] {
		return errf("%s: unknown op %q (want <, <=, >, >=, ==, !=)", what, a.Op)
	}
	windowed := a.WindowTo > 0
	phased := a.Phase != ""
	if windowed && phased {
		return errf("%s: `during` and `phase` are mutually exclusive", what)
	}
	switch {
	case windowed:
		if _, ok := windowMetrics[a.Metric]; !ok {
			return errf("%s: %q is not a timeline-window metric (known: %s)",
				what, a.Metric, strings.Join(sortedKeys(windowMetrics), ", "))
		}
		if a.WindowTo > duration {
			return errf("%s: window ends at %v, past the run's duration %v", what, a.WindowTo, duration)
		}
		switch a.Agg {
		case "", "avg", "min", "max":
		default:
			return errf("%s: unknown agg %q (want min, max, or avg)", what, a.Agg)
		}
	case phased:
		if _, ok := phaseMetrics[a.Metric]; !ok {
			return errf("%s: %q is not a phase metric (known: %s)",
				what, a.Metric, strings.Join(sortedKeys(phaseMetrics), ", "))
		}
		switch a.Phase {
		case "before", "during", "after":
		default:
			if _, err := strconv.Atoi(a.Phase); err != nil {
				return errf("%s: phase %q (want before, during, after, or an index)", what, a.Phase)
			}
		}
	default:
		if a.Agg != "" {
			return errf("%s: `agg` needs a `during` window", what)
		}
		_, isResult := resultMetrics[a.Metric]
		if !isResult && !specialMetrics[a.Metric] {
			return errf("%s: unknown metric %q (known: %s)",
				what, a.Metric, strings.Join(knownMetricNames(), ", "))
		}
	}
	// Value: conservation compares words; duration metrics compare
	// duration literals; everything else numbers.
	switch {
	case a.Metric == "conservation":
		if a.Op != "==" && a.Op != "!=" {
			return errf("%s: conservation supports == and != only", what)
		}
		if a.RawValue != "closed" && a.RawValue != "open" {
			return errf("%s: conservation compares against closed or open, have %q", what, a.RawValue)
		}
	case durationMetrics[a.Metric]:
		d, err := time.ParseDuration(a.RawValue)
		if err != nil {
			return errf("%s: %q is not a duration (want e.g. 500us)", what, a.RawValue)
		}
		a.Value = float64(d.Nanoseconds())
	default:
		v, err := strconv.ParseFloat(a.RawValue, 64)
		if err != nil {
			return errf("%s: %q is not a number", what, a.RawValue)
		}
		a.Value = v
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compare applies the assertion's operator.
func compare(op string, observed, want float64) bool {
	switch op {
	case "<":
		return observed < want
	case "<=":
		return observed <= want
	case ">":
		return observed > want
	case ">=":
		return observed >= want
	case "==":
		return observed == want
	case "!=":
		return observed != want
	}
	return false
}

// RecoveryFraction is the recovered-rate threshold: recovery_time measures
// how long after the last fault clears the delivered rate first reaches
// this fraction of the pre-fault baseline (matching the fault experiments).
const RecoveryFraction = 0.95

// recoveryTime computes the recovery_time metric; ok is false when the
// rate never recovered (or the inputs are missing).
func recoveryTime(comp *Compiled, res server.Result) (ns float64, ok bool, detail string) {
	from, to, hasFaults := comp.faultSpan()
	if !hasFaults {
		return 0, false, "scenario has no fault windows"
	}
	if res.RateWindow <= 0 || len(res.RateSeries) == 0 {
		return 0, false, "no delivered-rate series collected"
	}
	win := int64(res.RateWindow)
	baseline := stats.WindowMean(res.RateSeries, 0, int(int64(from)/win))
	if baseline <= 0 {
		return 0, false, "no pre-fault baseline (fault starts before any rate window closes)"
	}
	elapsed, recovered := stats.RecoveryTime(res.RateSeries, win, int64(to), baseline, RecoveryFraction)
	if !recovered {
		return 0, false, fmt.Sprintf("never recovered to %.0f%% of the %.2f Gbps pre-fault baseline",
			RecoveryFraction*100, baseline)
	}
	return float64(elapsed), true, ""
}

// evaluate runs every assertion against the outcome.
func evaluate(asserts []Assertion, comp *Compiled, res server.Result) []Check {
	checks := make([]Check, 0, len(asserts))
	for _, a := range asserts {
		checks = append(checks, evalOne(a, comp, res))
	}
	return checks
}

func evalOne(a Assertion, comp *Compiled, res server.Result) Check {
	c := Check{Assertion: a}
	switch {
	case a.WindowTo > 0:
		evalWindow(&c, res)
	case a.Phase != "":
		evalPhase(&c, res)
	case a.Metric == "conservation":
		closed := res.InFlightEnd == 0 && res.SentAll == res.CompletedAll+res.DroppedAll
		observed := "closed"
		if !closed {
			observed = "open"
			c.Detail = fmt.Sprintf("%d sent != %d completed + %d dropped (+%d in flight)",
				res.SentAll, res.CompletedAll, res.DroppedAll, res.InFlightEnd)
		}
		c.ObservedText = observed
		// == ⇔ the observed word equals the asserted word; != inverts.
		c.Pass = (a.Op == "==") == (observed == a.RawValue)
	case a.Metric == "recovery_time":
		ns, ok, detail := recoveryTime(comp, res)
		if !ok {
			c.ObservedText = "no recovery"
			c.Detail = detail
			c.Pass = false
			return c
		}
		c.Observed = ns
		c.ObservedText = sim.Time(ns).String()
		c.Pass = compare(a.Op, ns, a.Value)
	case a.Metric == "failover_ticks":
		if res.FailoverTicks < 0 {
			c.ObservedText = "none"
			c.Detail = "no Fwd_Th failover snap completed (no capacity loss, or it never settled)"
			c.Pass = false
			return c
		}
		c.Observed = float64(res.FailoverTicks)
		c.ObservedText = strconv.Itoa(res.FailoverTicks)
		c.Pass = compare(a.Op, c.Observed, a.Value)
	default:
		fn := resultMetrics[a.Metric]
		c.Observed = fn(res)
		c.ObservedText = trimFloat(c.Observed)
		c.Pass = compare(a.Op, c.Observed, a.Value)
	}
	return c
}

func evalWindow(c *Check, res server.Result) {
	a := c.Assertion
	if res.Timeline == nil {
		c.ObservedText = "no timeline"
		c.Detail = "timeline not collected"
		return
	}
	fn := windowMetrics[a.Metric]
	agg := a.Agg
	if agg == "" {
		agg = "avg"
	}
	var sum, min, max float64
	n := 0
	for i := 0; i < res.Timeline.Len(); i++ {
		s := res.Timeline.At(i)
		// A sample at tick end T summarizes (T-period, T]; it belongs to
		// the window when T lands inside (from, to].
		if s.T <= a.WindowFrom || s.T > a.WindowTo {
			continue
		}
		v := fn(s)
		if n == 0 || v < min {
			min = v
		}
		if n == 0 || v > max {
			max = v
		}
		sum += v
		n++
	}
	if n == 0 {
		c.ObservedText = "no samples"
		c.Detail = fmt.Sprintf("no timeline samples inside %v..%v", a.WindowFrom, a.WindowTo)
		return
	}
	switch agg {
	case "min":
		c.Observed = min
	case "max":
		c.Observed = max
	default:
		c.Observed = sum / float64(n)
	}
	c.ObservedText = fmt.Sprintf("%s (%s of %d samples)", trimFloat(c.Observed), agg, n)
	c.Pass = compare(a.Op, c.Observed, a.Value)
}

func evalPhase(c *Check, res server.Result) {
	a := c.Assertion
	idx := -1
	switch a.Phase {
	case "before":
		idx = 0
	case "during":
		idx = 1
	case "after":
		idx = 2
	default:
		idx, _ = strconv.Atoi(a.Phase)
	}
	if idx < 0 || idx >= len(res.Phases) {
		c.ObservedText = "no phase"
		c.Detail = fmt.Sprintf("run has %d phases, no %q", len(res.Phases), a.Phase)
		return
	}
	c.Observed = phaseMetrics[a.Metric](res.Phases[idx])
	c.ObservedText = trimFloat(c.Observed)
	c.Pass = compare(a.Op, c.Observed, a.Value)
}

// trimFloat renders a float compactly and deterministically.
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
