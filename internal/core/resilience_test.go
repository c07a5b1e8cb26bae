package core

import (
	"testing"

	"halsim/internal/sim"
)

// feedBinding makes the policy's binding check pass so a tick would
// normally move the threshold (occupancy decides the direction).
func feedBinding(l *LBP) {
	// SNIC_TP over one LBPPeriod well above FwdTh keeps line 2 inert.
	l.OnSNICBurst(int(100 * float64(l.cfg.LBPPeriod) / 8))
}

func TestWatchdogHoldsOnStaleTelemetry(t *testing.T) {
	l, d, _ := lbpSetup(t, 0) // occ 0 < WMLow → every live tick raises
	rolls := uint64(0)
	l.BindTelemetry(&rolls)

	// Fresh telemetry: the policy moves.
	rolls++
	feedBinding(l)
	l.Tick()
	if l.Adjustments == 0 {
		t.Fatal("live tick should adjust")
	}

	// Telemetry freezes. DefaultConfig: StaleTicks 3, MonitorPeriod ==
	// 10 µs < LBPPeriod 100 µs → staleLimit is 3 ticks.
	limit := l.staleLimit()
	if limit != 3 {
		t.Fatalf("staleLimit = %d, want 3", limit)
	}
	for i := 0; i < limit; i++ {
		feedBinding(l)
		l.Tick() // streak builds; last of these reaches the limit and holds
	}
	if l.Holds != 1 {
		t.Fatalf("holds = %d, want 1", l.Holds)
	}
	th := d.FwdTh()
	for i := 0; i < 5; i++ {
		feedBinding(l)
		l.Tick()
	}
	if l.Holds != 6 {
		t.Fatalf("holds = %d, want 6", l.Holds)
	}
	if d.FwdTh() != th {
		t.Fatalf("held threshold moved: %v -> %v", th, d.FwdTh())
	}

	// Telemetry resumes: the policy moves again.
	rolls++
	adjBefore := l.Adjustments
	feedBinding(l)
	l.Tick()
	if l.Adjustments == adjBefore {
		t.Fatal("tick after telemetry resumed should adjust")
	}
}

func TestWatchdogScalesWithCoarseMonitor(t *testing.T) {
	cfg := DefaultConfig(snicAddr, hostAddr)
	cfg.MonitorPeriod = sim.Millisecond // 10× the LBP period
	d := NewTrafficDirector(hostAddr, 0)
	l, err := NewLBP(cfg, &d, &fakeQueues{occ: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.staleLimit(); got != 30 {
		t.Fatalf("staleLimit = %d, want 30 (3 stale windows × 10 ticks each)", got)
	}
	// A healthy coarse monitor rolls every 10 ticks: never a hold.
	rolls := uint64(0)
	l.BindTelemetry(&rolls)
	for tick := 0; tick < 100; tick++ {
		if tick%10 == 0 {
			rolls++
		}
		feedBinding(&l)
		l.Tick()
	}
	if l.Holds != 0 {
		t.Fatalf("healthy coarse monitor caused %d holds", l.Holds)
	}
}

func TestCapacityLossSnapsWithinBound(t *testing.T) {
	l, d, _ := lbpSetup(t, 8) // occupancy between watermarks: policy would hold
	d.SetFwdTh(40)
	l.OnCapacityChange(0.5)
	if l.FailoverEvents != 1 {
		t.Fatalf("failover events = %d", l.FailoverEvents)
	}
	for i := 0; i < l.cfg.FailoverTicks; i++ {
		l.Tick()
	}
	if got := d.FwdTh(); got > 20 {
		t.Fatalf("FwdTh = %v after %d ticks, want <= 20 (half of 40)", got, l.cfg.FailoverTicks)
	}
	if l.LastFailoverTicks < 1 || l.LastFailoverTicks > l.cfg.FailoverTicks {
		t.Fatalf("failover took %d ticks, bound %d", l.LastFailoverTicks, l.cfg.FailoverTicks)
	}
}

func TestCapacityLossSnapImmediateWhenZeroBound(t *testing.T) {
	cfg := DefaultConfig(snicAddr, hostAddr)
	cfg.FailoverTicks = 0
	d := NewTrafficDirector(hostAddr, 0)
	l, err := NewLBP(cfg, &d, &fakeQueues{occ: 8})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFwdTh(32)
	l.OnCapacityChange(0.25)
	l.Tick()
	if got := d.FwdTh(); got != 8 {
		t.Fatalf("FwdTh = %v, want 8 on the next tick", got)
	}
	if l.LastFailoverTicks != 1 {
		t.Fatalf("failover took %d ticks, want 1", l.LastFailoverTicks)
	}
}

func TestCapacityRecoveryCancelsSnap(t *testing.T) {
	l, d, _ := lbpSetup(t, 8)
	d.SetFwdTh(40)
	l.OnCapacityChange(0.5)
	l.OnCapacityChange(1.0) // recovered before the next tick
	l.Tick()
	if got := d.FwdTh(); got != 40 {
		t.Fatalf("FwdTh = %v, want 40 (snap cancelled)", got)
	}
	if l.LastFailoverTicks != -1 {
		t.Fatalf("LastFailoverTicks = %d, want -1", l.LastFailoverTicks)
	}
}

func TestSnapRunsThroughTelemetryBlackout(t *testing.T) {
	// A crash during a telemetry blackout must still fail over: the
	// capacity signal is direct, not telemetry.
	l, d, _ := lbpSetup(t, 8)
	rolls := uint64(0)
	l.BindTelemetry(&rolls)
	for i := 0; i < 10; i++ {
		l.Tick() // telemetry frozen: watchdog engaged
	}
	if l.Holds == 0 {
		t.Fatal("watchdog should be holding")
	}
	d.SetFwdTh(40)
	l.OnCapacityChange(0.5)
	for i := 0; i < l.cfg.FailoverTicks; i++ {
		l.Tick()
	}
	if got := d.FwdTh(); got > 20 {
		t.Fatalf("FwdTh = %v, blackout delayed the failover", got)
	}
}

func TestFrozenPolicyStillSnapshotsNothing(t *testing.T) {
	cfg := DefaultConfig(snicAddr, hostAddr)
	cfg.Frozen = true
	cfg.InitialFwdThGbps = 40
	d := NewTrafficDirector(hostAddr, 0)
	l, err := NewLBP(cfg, &d, &fakeQueues{occ: 8})
	if err != nil {
		t.Fatal(err)
	}
	l.OnCapacityChange(0.5)
	l.Tick()
	if got := d.FwdTh(); got != 40 {
		t.Fatalf("frozen FwdTh moved to %v", got)
	}
}

func TestConfigRejectsNegativeWatchdog(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.StaleTicks = -1 },
		func(c *Config) { c.FailoverTicks = -1 },
	} {
		cfg := DefaultConfig(snicAddr, hostAddr)
		mut(&cfg)
		if _, err := NewLBP(cfg, new(TrafficDirector), &fakeQueues{}); err == nil {
			t.Fatal("negative watchdog config should fail")
		}
	}
}
