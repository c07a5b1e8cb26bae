package server

import (
	"reflect"
	"strings"
	"testing"

	"halsim/internal/fault"
	"halsim/internal/nf"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

// faultRC is a fault-run config: phase marks at the fault window's edges,
// a rate series for recovery analysis, and a drain so conservation closes.
func faultRC(rate float64, from, to sim.Time) RunConfig {
	return RunConfig{
		Duration:   100 * sim.Millisecond,
		RateGbps:   rate,
		PhaseMarks: []sim.Time{from, to},
		RateWindow: 2 * sim.Millisecond,
		Drain:      true,
	}
}

func ledgerOK(t *testing.T, res Result) {
	t.Helper()
	if res.InFlightEnd != 0 {
		t.Fatalf("drained run left %d packets in flight (%d sent, %d completed, %d dropped)",
			res.InFlightEnd, res.SentAll, res.CompletedAll, res.DroppedAll)
	}
	if res.SentAll != res.CompletedAll+res.DroppedAll {
		t.Fatalf("ledger leak: %d sent != %d completed + %d dropped",
			res.SentAll, res.CompletedAll, res.DroppedAll)
	}
}

func TestCoreCrashFailoverAndRecovery(t *testing.T) {
	from, to := 40*sim.Millisecond, 60*sim.Millisecond
	plan := fault.NewPlan(1).CrashSNICCores(from, to, 4)
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT, Seed: 1, Faults: plan}, faultRC(60, from, to))
	if err != nil {
		t.Fatal(err)
	}
	ledgerOK(t, res)
	if res.CoreCrashes != 4 {
		t.Fatalf("crashes = %d, want 4", res.CoreCrashes)
	}
	if res.FaultEvents != 8 {
		t.Fatalf("fault events = %d, want 8 (4 crashes + 4 recoveries)", res.FaultEvents)
	}
	if res.Requeued == 0 {
		t.Fatal("crash under load should rehome packets")
	}
	// The LBP must complete the Fwd_Th failover snap within the configured
	// bound (DefaultConfig: 2 ticks).
	if res.FailoverTicks < 1 || res.FailoverTicks > 2 {
		t.Fatalf("failover took %d LBP ticks, want within 2", res.FailoverTicks)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	before, after := res.Phases[0], res.Phases[2]
	// Offered load never stops; the host absorbs the diverted excess, so
	// delivered throughput recovers to ≥95% of the pre-fault level.
	if after.AvgGbps < before.AvgGbps*0.95 {
		t.Fatalf("post-fault %.1f Gbps < 95%% of pre-fault %.1f Gbps", after.AvgGbps, before.AvgGbps)
	}
	if len(res.RateSeries) == 0 {
		t.Fatal("rate series empty")
	}
}

func TestRxDropFaultWindow(t *testing.T) {
	from, to := 40*sim.Millisecond, 60*sim.Millisecond
	plan := fault.NewPlan(1).DropSNICRx(from, to, 0.25)
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT, Seed: 1, Faults: plan}, faultRC(60, from, to))
	if err != nil {
		t.Fatal(err)
	}
	ledgerOK(t, res)
	if res.FaultDrops == 0 {
		t.Fatal("rx fault should drop packets")
	}
	before, during, after := res.Phases[0], res.Phases[1], res.Phases[2]
	if during.AvgGbps >= before.AvgGbps {
		t.Fatalf("during %.1f Gbps should dip below before %.1f", during.AvgGbps, before.AvgGbps)
	}
	if after.AvgGbps < before.AvgGbps*0.95 {
		t.Fatalf("post-fault %.1f Gbps < 95%% of pre-fault %.1f", after.AvgGbps, before.AvgGbps)
	}
	if res.DropFraction == 0 {
		t.Fatal("fault drops should count toward DropFraction")
	}
}

func TestTelemetryBlackoutHoldsLBP(t *testing.T) {
	from, to := 40*sim.Millisecond, 60*sim.Millisecond
	plan := fault.NewPlan(1).BlackoutTelemetry(from, to)
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT, Seed: 1, Faults: plan}, faultRC(60, from, to))
	if err != nil {
		t.Fatal(err)
	}
	ledgerOK(t, res)
	if res.LBPHolds == 0 {
		t.Fatal("blackout should trip the stale-telemetry watchdog")
	}
	// The held threshold keeps serving: no collapse during the blackout.
	before, during := res.Phases[0], res.Phases[1]
	if during.AvgGbps < before.AvgGbps*0.9 {
		t.Fatalf("blackout collapsed throughput: %.1f vs %.1f", during.AvgGbps, before.AvgGbps)
	}
}

func TestAccelDegradeFallsBackGracefully(t *testing.T) {
	from, to := 40*sim.Millisecond, 60*sim.Millisecond
	plan := fault.NewPlan(1).DegradeSNICAccel(from, to)
	res, err := Run(Config{Mode: HAL, Fn: nf.REM, Seed: 1, Faults: plan}, faultRC(40, from, to))
	if err != nil {
		t.Fatal(err)
	}
	ledgerOK(t, res)
	before, during, after := res.Phases[0], res.Phases[1], res.Phases[2]
	if during.P99us <= before.P99us {
		t.Fatalf("degraded accel should raise p99: %.1f vs %.1f", during.P99us, before.P99us)
	}
	if after.AvgGbps < before.AvgGbps*0.95 {
		t.Fatalf("post-restore %.1f Gbps < 95%% of pre-fault %.1f", after.AvgGbps, before.AvgGbps)
	}
}

// TestSLBAccelRestoreKeepsProcessingRate restores an accelerator on an SLB
// SNIC, whose forwarding cores leave 4 of 8 cores processing: the restored
// profile must serve at the processing cores' share of its rate, not the
// whole SNIC's, so the after-fault phase delivers what the before-fault
// phase did.
func TestSLBAccelRestoreKeepsProcessingRate(t *testing.T) {
	from, to := 40*sim.Millisecond, 60*sim.Millisecond
	plan := fault.NewPlan(1).DegradeSNICAccel(from, to)
	cfg := Config{Mode: SLB, Fn: nf.REM, SLBCores: 4, SLBFwdThGbps: 80, Seed: 1, Faults: plan}
	res, err := Run(cfg, faultRC(90, from, to))
	if err != nil {
		t.Fatal(err)
	}
	ledgerOK(t, res)
	before, after := res.Phases[0], res.Phases[2]
	if after.AvgGbps < before.AvgGbps*0.95 || after.AvgGbps > before.AvgGbps*1.05 {
		t.Fatalf("post-restore %.2f Gbps, want within 5%% of pre-fault %.2f", after.AvgGbps, before.AvgGbps)
	}
}

func TestHostCoreCrashInHostOnlyMode(t *testing.T) {
	from, to := 40*sim.Millisecond, 60*sim.Millisecond
	plan := &fault.Plan{Seed: 1, Windows: []fault.Window{{From: from, To: to, Kind: fault.CoreCrash, Host: true, Cores: 2}}}
	res, err := Run(Config{Mode: HostOnly, Fn: nf.NAT, Seed: 1, Faults: plan}, faultRC(40, from, to))
	if err != nil {
		t.Fatal(err)
	}
	ledgerOK(t, res)
	if res.CoreCrashes != 2 {
		t.Fatalf("crashes = %d", res.CoreCrashes)
	}
}

// TestFaultDeterminism is the regression gate for the fault layer's
// reproducibility contract: two runs with the same seed and the same plan
// produce byte-identical results — fault injection included. Run under
// -race in CI.
func TestFaultDeterminism(t *testing.T) {
	from, to := 40*sim.Millisecond, 60*sim.Millisecond
	plan := fault.NewPlan(3).
		CrashSNICCores(from, to, 2).
		DropSNICRx(45*sim.Millisecond, 55*sim.Millisecond, 0.1).
		BlackoutTelemetry(from, to)
	cfg := Config{Mode: HAL, Fn: nf.NAT, Seed: 3, Faults: plan}
	a, err := Run(cfg, faultRC(60, from, to))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, faultRC(60, from, to))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed + same plan diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestDrainWithoutFaultsClosesLedger(t *testing.T) {
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT, Seed: 1},
		RunConfig{Duration: 50 * sim.Millisecond, RateGbps: 60, Drain: true})
	if err != nil {
		t.Fatal(err)
	}
	ledgerOK(t, res)
	if res.FaultEvents != 0 || res.CoreCrashes != 0 {
		t.Fatal("no-fault run reported fault activity")
	}
}

func TestFaultValidationErrors(t *testing.T) {
	rc := RunConfig{Duration: 100 * sim.Millisecond, RateGbps: 10}
	crash := func(host bool, cores int) *fault.Plan {
		return &fault.Plan{Windows: []fault.Window{{From: sim.Millisecond, To: 2 * sim.Millisecond,
			Kind: fault.CoreCrash, Host: host, Cores: cores}}}
	}
	cases := []struct {
		cfg  Config
		rc   RunConfig
		want string
	}{
		// Fault window past the run's duration.
		{Config{Mode: HAL, Fn: nf.NAT, Faults: fault.NewPlan(0).CrashSNICCores(sim.Second, 2*sim.Second, 1)},
			rc, "starts at 1s, past the run's duration 100ms"},
		{Config{Mode: HAL, Fn: nf.NAT, Faults: fault.NewPlan(0).DegradeSNICAccel(sim.Millisecond, sim.Second)},
			rc, "ends at 1s, past the run's duration 100ms"},
		// Invalid plan.
		{Config{Mode: HAL, Fn: nf.NAT, Faults: &fault.Plan{Windows: []fault.Window{{From: 1, To: 2, Kind: fault.Kind(99)}}}},
			rc, "unknown kind 99"},
		// A core-crash wider than the station it hits.
		{Config{Mode: HAL, Fn: nf.NAT, Faults: crash(false, 9)}, rc, "crashes 9 snic cores, but the snic station has 8"},
		{Config{Mode: SLB, Fn: nf.NAT, SLBCores: 4, SLBFwdThGbps: 20, Faults: crash(false, 5)},
			rc, "crashes 5 snic cores, but the snic station has 4"},
		{Config{Mode: HostOnly, Fn: nf.NAT, Faults: crash(true, 99)}, rc, "crashes 99 host cores, but the host station has"},
		// Phase mark outside (0, Duration).
		{Config{Mode: HAL, Fn: nf.NAT},
			RunConfig{Duration: 100 * sim.Millisecond, RateGbps: 10, PhaseMarks: []sim.Time{200 * sim.Millisecond}}, "phase mark"},
		// Non-ascending phase marks.
		{Config{Mode: HAL, Fn: nf.NAT},
			RunConfig{Duration: 100 * sim.Millisecond, RateGbps: 10,
				PhaseMarks: []sim.Time{60 * sim.Millisecond, 40 * sim.Millisecond}}, "ascending"},
		// Negative rate window.
		{Config{Mode: HAL, Fn: nf.NAT},
			RunConfig{Duration: 100 * sim.Millisecond, RateGbps: 10, RateWindow: -1}, "negative rate window"},
	}
	for i, c := range cases {
		if _, err := Run(c.cfg, c.rc); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want %q", i, err, c.want)
		}
	}
	// The widest core-crash each station allows runs.
	if _, err := Run(Config{Mode: SLB, Fn: nf.NAT, SLBCores: 4, SLBFwdThGbps: 20, Faults: crash(false, 4)},
		RunConfig{Duration: 5 * sim.Millisecond, RateGbps: 10}); err != nil {
		t.Errorf("crashing every SLB processing core: %v", err)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	w := trace.Workload(99)
	_, err := Run(Config{Mode: HostOnly, Fn: nf.NAT},
		RunConfig{Duration: 10 * sim.Millisecond, Workload: &w})
	if err == nil {
		t.Fatal("unknown workload should be rejected, not panic")
	}
}

func TestRateBesideWorkloadRejected(t *testing.T) {
	w := trace.Web
	_, err := Run(Config{Mode: HAL, Fn: nf.NAT},
		RunConfig{Duration: 10 * sim.Millisecond, RateGbps: 60, Workload: &w})
	if err == nil || !strings.Contains(err.Error(), "a trace draws its own rate") {
		t.Fatalf("a rate beside a workload should be rejected, have %v", err)
	}
}
