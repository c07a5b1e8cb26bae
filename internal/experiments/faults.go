package experiments

import (
	"fmt"

	"halsim/internal/fault"
	"halsim/internal/nf"
	"halsim/internal/server"
	"halsim/internal/sim"
	"halsim/internal/stats"
)

// FaultPoint is one fault scenario's outcome: throughput/p99/EE before,
// during, and after the fault window, plus the recovery and failover
// observables and the packet-conservation ledger.
type FaultPoint struct {
	Name string
	Fn   string

	BeforeGbps, DuringGbps, AfterGbps    float64
	BeforeP99us, DuringP99us, AfterP99us float64
	BeforeEff, AfterEff                  float64

	// RecoveryMS is how long after the fault cleared the delivered rate
	// climbed back to ≥95% of the pre-fault baseline (-1: never within the
	// run).
	RecoveryMS float64
	// FailoverTicks is how many LBP ticks the capacity-loss Fwd_Th snap
	// took (-1 when the scenario has no capacity loss).
	FailoverTicks int

	CoreCrashes, Requeued, FaultDrops, LBPHolds uint64

	// Ledger: every offered packet completed, dropped, or (never, after a
	// drained run) still in flight.
	Sent, Completed, Dropped uint64
	InFlight                 int64
}

// LedgerOK reports exact packet conservation.
func (p FaultPoint) LedgerOK() bool {
	return p.InFlight == 0 && p.Sent == p.Completed+p.Dropped
}

// FaultsResult is the fault-injection experiment: HAL under core crashes,
// Rx-ring faults, telemetry dropout, and accelerator degradation.
type FaultsResult struct {
	Points []FaultPoint
	Notes  []string
}

// Table renders the experiment.
func (r FaultsResult) Table() Table {
	t := Table{
		Title: "Fault injection: HAL under crashes, ring faults, telemetry dropout (before | during | after)",
		Headers: []string{"scenario", "fn", "TP (Gbps)", "p99 (us)", "Gbps/W b/a",
			"recover (ms)", "failover", "requeued", "fdrops", "holds", "ledger"},
		Notes: r.Notes,
	}
	for _, p := range r.Points {
		rec := "-"
		if p.RecoveryMS >= 0 {
			rec = f1(p.RecoveryMS)
		}
		fo := "-"
		if p.FailoverTicks >= 0 {
			fo = fmt.Sprintf("%d ticks", p.FailoverTicks)
		}
		ledger := "leak!"
		if p.LedgerOK() {
			ledger = "exact"
		}
		t.Rows = append(t.Rows, []string{
			p.Name, p.Fn,
			fmt.Sprintf("%s|%s|%s", f1(p.BeforeGbps), f1(p.DuringGbps), f1(p.AfterGbps)),
			fmt.Sprintf("%s|%s|%s", f1(p.BeforeP99us), f1(p.DuringP99us), f1(p.AfterP99us)),
			fmt.Sprintf("%s/%s", f2(p.BeforeEff), f2(p.AfterEff)),
			rec, fo,
			fmt.Sprintf("%d", p.Requeued),
			fmt.Sprintf("%d", p.FaultDrops),
			fmt.Sprintf("%d", p.LBPHolds),
			ledger,
		})
	}
	return t
}

// faultCase is one scenario of the sweep.
type faultCase struct {
	name     string
	fn       nf.ID
	rateGbps float64
	capLoss  bool // expects a Fwd_Th failover snap
	plan     func(p *fault.Plan, from, to sim.Time)
}

// Faults runs the fault-injection sweep: each scenario offers a constant
// load in HAL mode, breaks something for the middle fifth of the run, and
// measures degradation, recovery time, and packet conservation.
func Faults(opt Options) (FaultsResult, error) {
	opt = opt.withDefaults()
	out := FaultsResult{
		Notes: []string{
			"fault window is the middle fifth of the run; runs drain so the ledger closes exactly",
			"recover: first rate window at >=95% of the pre-fault delivered rate after the fault clears",
			"failover: LBP ticks for Fwd_Th to snap to the surviving SNIC capacity",
		},
	}
	cases := []faultCase{
		{name: "core-crash 4/8", fn: nf.NAT, rateGbps: 60, capLoss: true,
			plan: func(p *fault.Plan, from, to sim.Time) { p.CrashSNICCores(from, to, 4) }},
		{name: "rx-drop 20%", fn: nf.NAT, rateGbps: 60,
			plan: func(p *fault.Plan, from, to sim.Time) { p.DropSNICRx(from, to, 0.2) }},
		{name: "telemetry blackout", fn: nf.NAT, rateGbps: 60,
			plan: func(p *fault.Plan, from, to sim.Time) { p.BlackoutTelemetry(from, to) }},
		{name: "core-crash 4/8", fn: nf.REM, rateGbps: 40, capLoss: true,
			plan: func(p *fault.Plan, from, to sim.Time) { p.CrashSNICCores(from, to, 4) }},
		{name: "accel degrade", fn: nf.REM, rateGbps: 40,
			plan: func(p *fault.Plan, from, to sim.Time) { p.DegradeSNICAccel(from, to) }},
	}

	points := make([]FaultPoint, len(cases))
	err := parMap(len(cases), func(i int) error {
		c := cases[i]
		dur := opt.Duration
		from, to := dur*2/5, dur*3/5
		win := dur / 60
		if win <= 0 {
			win = sim.Millisecond
		}
		plan := fault.NewPlan(opt.Seed)
		c.plan(plan, from, to)
		res, err := server.Run(
			server.Config{Mode: server.HAL, Fn: c.fn, Faults: plan, Seed: opt.Seed},
			server.RunConfig{
				Duration:   dur,
				RateGbps:   c.rateGbps,
				PhaseMarks: []sim.Time{from, to},
				RateWindow: win,
				Drain:      true,
			})
		if err != nil {
			return fmt.Errorf("faults %s/%v: %w", c.name, c.fn, err)
		}
		if len(res.Phases) != 3 {
			return fmt.Errorf("faults %s/%v: %d phases, want 3", c.name, c.fn, len(res.Phases))
		}
		before, during, after := res.Phases[0], res.Phases[1], res.Phases[2]
		pt := FaultPoint{
			Name: c.name, Fn: c.fn.String(),
			BeforeGbps: before.AvgGbps, DuringGbps: during.AvgGbps, AfterGbps: after.AvgGbps,
			BeforeP99us: before.P99us, DuringP99us: during.P99us, AfterP99us: after.P99us,
			BeforeEff: before.EffGbpsPerW, AfterEff: after.EffGbpsPerW,
			RecoveryMS:  -1,
			CoreCrashes: res.CoreCrashes, Requeued: res.Requeued,
			FaultDrops: res.FaultDrops, LBPHolds: res.LBPHolds,
			Sent: res.SentAll, Completed: res.CompletedAll, Dropped: res.DroppedAll,
			InFlight:      res.InFlightEnd,
			FailoverTicks: -1,
		}
		if c.capLoss {
			pt.FailoverTicks = res.FailoverTicks
		}
		baseline := stats.WindowMean(res.RateSeries, 0, int(from/win))
		if ns, ok := stats.RecoveryTime(res.RateSeries, int64(win), int64(to), baseline, 0.95); ok {
			pt.RecoveryMS = float64(ns) / float64(sim.Millisecond)
		}
		points[i] = pt
		return nil
	})
	out.Points = points
	return out, err
}
