package server

import (
	"strings"
	"testing"

	"halsim/internal/cxl"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

// short returns a RunConfig sized for unit tests.
func short(rate float64) RunConfig {
	return RunConfig{Duration: 100 * sim.Millisecond, RateGbps: rate}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		name string
		want Mode
	}{{"host", HostOnly}, {"SNIC", SNICOnly}, {"hal", HAL}, {"slb", SLB}, {"Slb-Host", SLBHost}} {
		if got, err := ParseMode(c.name); err != nil || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := ParseMode("turbo"); err == nil || !strings.Contains(err.Error(), "slb-host") {
		t.Errorf("ParseMode(turbo) = %v, want an error naming the known modes", err)
	}
}

func TestSNICOnlySaturatesAtProfileCapacity(t *testing.T) {
	res, err := Run(Config{Mode: SNICOnly, Fn: nf.NAT}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	// BF-2 NAT saturates ≈42 Gbps (Table V) and tail-drops the rest.
	if res.AvgGbps < 38 || res.AvgGbps > 46 {
		t.Fatalf("SNIC NAT delivered %.1f Gbps, want ≈42", res.AvgGbps)
	}
	if res.DropFraction < 0.3 {
		t.Fatalf("drop fraction %.2f, expected heavy drops at 80G offered", res.DropFraction)
	}
	if res.SNICShare != 1 {
		t.Fatalf("SNIC share %.2f", res.SNICShare)
	}
}

func TestHostOnlyKeepsUpAt80(t *testing.T) {
	res, err := Run(Config{Mode: HostOnly, Fn: nf.NAT}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgGbps < 75 {
		t.Fatalf("host NAT delivered %.1f Gbps at 80 offered", res.AvgGbps)
	}
	if res.DropFraction > 0.01 {
		t.Fatalf("host should not drop at 80G: %.3f", res.DropFraction)
	}
	if res.SNICShare != 0 {
		t.Fatalf("SNIC share %.2f", res.SNICShare)
	}
}

func TestSNICMoreEfficientAtLowRate(t *testing.T) {
	// The §III-C crossover: at low packet rates the SNIC wins on
	// energy efficiency, at high rates the host wins on throughput.
	lowS, err := Run(Config{Mode: SNICOnly, Fn: nf.NAT}, short(10))
	if err != nil {
		t.Fatal(err)
	}
	lowH, err := Run(Config{Mode: HostOnly, Fn: nf.NAT}, short(10))
	if err != nil {
		t.Fatal(err)
	}
	if lowS.EffGbpsPerW <= lowH.EffGbpsPerW {
		t.Fatalf("at 10G SNIC EE %.3f should beat host %.3f", lowS.EffGbpsPerW, lowH.EffGbpsPerW)
	}
	if lowS.AvgPowerW >= lowH.AvgPowerW {
		t.Fatalf("SNIC-only power %.0f should undercut host %.0f", lowS.AvgPowerW, lowH.AvgPowerW)
	}
}

func TestHALTracksOfferedLoadAcrossSaturation(t *testing.T) {
	// Fig 9's headline: HAL throughput keeps rising past the SNIC's
	// saturation point because the host absorbs the excess.
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgGbps < 75 {
		t.Fatalf("HAL delivered %.1f Gbps at 80 offered", res.AvgGbps)
	}
	if res.DropFraction > 0.02 {
		t.Fatalf("HAL drop fraction %.3f", res.DropFraction)
	}
	// The SNIC should still carry a large share (its ~42G capacity).
	if res.SNICShare < 0.3 || res.SNICShare > 0.7 {
		t.Fatalf("SNIC share %.2f, want ≈0.5 at 80G", res.SNICShare)
	}
	// p99 must stay near host-class, not SNIC-saturated-class (ms).
	if res.P99us > 500 {
		t.Fatalf("HAL p99 %.0fµs indicates queue blow-up", res.P99us)
	}
	if res.LBPAdjustments == 0 {
		t.Fatal("LBP should have adapted FwdTh")
	}
}

func TestHALCheaperThanHostAtLowRate(t *testing.T) {
	hal, err := Run(Config{Mode: HAL, Fn: nf.NAT}, short(15))
	if err != nil {
		t.Fatal(err)
	}
	host, err := Run(Config{Mode: HostOnly, Fn: nf.NAT}, short(15))
	if err != nil {
		t.Fatal(err)
	}
	if hal.AvgPowerW >= host.AvgPowerW {
		t.Fatalf("HAL power %.0f should undercut host-only %.0f at low rate", hal.AvgPowerW, host.AvgPowerW)
	}
	if hal.EffGbpsPerW <= host.EffGbpsPerW {
		t.Fatalf("HAL EE %.3f should beat host %.3f at low rate", hal.EffGbpsPerW, host.EffGbpsPerW)
	}
	if hal.SNICShare < 0.9 {
		t.Fatalf("at 15G nearly everything should stay on the SNIC: share %.2f", hal.SNICShare)
	}
	// Host cores should spend most of the run asleep.
	if hal.Wakeups == 0 && hal.AvgPowerW > 230 {
		t.Fatal("host seems to poll continuously under HAL at low rate")
	}
}

func TestHALLatencyNearSNICAtLowRate(t *testing.T) {
	hal, err := Run(Config{Mode: HAL, Fn: nf.NAT}, short(20))
	if err != nil {
		t.Fatal(err)
	}
	snic, err := Run(Config{Mode: SNICOnly, Fn: nf.NAT}, short(20))
	if err != nil {
		t.Fatal(err)
	}
	// §VII-A: below the SNIC's capacity HAL adds only the HLB's ~800ns
	// plus noise. Allow generous headroom for occasional diversions.
	if hal.P50us > snic.P50us+2 {
		t.Fatalf("HAL p50 %.1fµs vs SNIC %.1fµs: HLB adder too large", hal.P50us, snic.P50us)
	}
}

func TestSLBOneCoreDropsHeavily(t *testing.T) {
	// Fig 5: one SLB core cannot forward 60G of excess; most packets
	// drop (paper: 58–61%).
	res, err := Run(Config{Mode: SLB, Fn: nf.NAT, SLBCores: 1, SLBFwdThGbps: 20}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	if res.DropFraction < 0.4 {
		t.Fatalf("1-core SLB drop fraction %.2f, expected ≈0.55", res.DropFraction)
	}
	if res.AvgGbps > 45 {
		t.Fatalf("1-core SLB delivered %.1f Gbps, expected to collapse", res.AvgGbps)
	}
}

func TestSLBFourCoresKeepsUpButHurtsLatency(t *testing.T) {
	slb, err := Run(Config{Mode: SLB, Fn: nf.NAT, SLBCores: 4, SLBFwdThGbps: 20}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	// Fig 5: ~80G total at FwdTh=20 with 4 cores...
	if slb.AvgGbps < 65 {
		t.Fatalf("4-core SLB delivered %.1f Gbps, want ≈75+", slb.AvgGbps)
	}
	// ...but with worse latency than HAL (the §IV argument).
	hal, err := Run(Config{Mode: HAL, Fn: nf.NAT}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	if slb.P99us <= hal.P99us {
		t.Fatalf("SLB p99 %.1fµs should exceed HAL %.1fµs", slb.P99us, hal.P99us)
	}
}

func TestSLBHighFwdThOverloadsProcessingCores(t *testing.T) {
	// Fig 5's right side: FwdTh=60 with 4 processing cores halves the
	// SNIC's NAT capacity → throughput decreases vs FwdTh=20.
	lo, err := Run(Config{Mode: SLB, Fn: nf.NAT, SLBCores: 4, SLBFwdThGbps: 20}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(Config{Mode: SLB, Fn: nf.NAT, SLBCores: 4, SLBFwdThGbps: 60}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	if hi.AvgGbps >= lo.AvgGbps {
		t.Fatalf("FwdTh=60 (%.1fG) should underperform FwdTh=20 (%.1fG)", hi.AvgGbps, lo.AvgGbps)
	}
}

func TestStatefulOverPCIeRejected(t *testing.T) {
	_, err := Run(Config{Mode: HAL, Fn: nf.Count, Fabric: cxl.PCIe}, short(20))
	if err == nil {
		t.Fatal("stateful cooperative processing over PCIe must be rejected (§V-C)")
	}
}

func TestStatefulOverCXLWorks(t *testing.T) {
	res, err := Run(Config{Mode: HAL, Fn: nf.Count, Fabric: cxl.CXL}, short(70))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgGbps < 60 {
		t.Fatalf("CXL Count delivered %.1f Gbps at 70 offered", res.AvgGbps)
	}
	// With both sides touching shared counters, coherence traffic must
	// have been charged.
	if res.CoherenceRemote == 0 {
		t.Fatal("cooperative stateful processing should generate coherence traffic")
	}
}

func TestStatefulCoherenceOverheadSmall(t *testing.T) {
	// §VII-B: cache coherence costs only ~0.3–0.4% throughput.
	with, err := Run(Config{Mode: HAL, Fn: nf.Count, Fabric: cxl.CXL, Seed: 5}, short(50))
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(Config{Mode: HAL, Fn: nf.Count, Seed: 5}, short(50))
	if err != nil {
		t.Fatal(err)
	}
	if with.AvgGbps < without.AvgGbps*0.93 {
		t.Fatalf("coherence cost too high: %.1f vs %.1f Gbps", with.AvgGbps, without.AvgGbps)
	}
}

func TestPipelinedFunctions(t *testing.T) {
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT, PipelineOn: true, Pipeline: nf.REM}, short(60))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgGbps < 50 {
		t.Fatalf("NAT+REM pipeline delivered %.1f Gbps at 60 offered", res.AvgGbps)
	}
	single, err := Run(Config{Mode: HAL, Fn: nf.NAT}, short(60))
	if err != nil {
		t.Fatal(err)
	}
	if res.P99us <= single.P99us {
		t.Fatal("a two-stage pipeline cannot have lower p99 than one stage")
	}
}

func TestWorkloadTraceRun(t *testing.T) {
	w := trace.Web
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT},
		RunConfig{Duration: 200 * sim.Millisecond, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	// Web averages 1.6 Gbps; delivered should be in that ballpark and
	// bursts make Max >> Avg.
	if res.AvgGbps < 0.3 || res.AvgGbps > 6 {
		t.Fatalf("web trace delivered %.2f Gbps, want ≈1.6", res.AvgGbps)
	}
	if res.MaxGbps < res.AvgGbps {
		t.Fatal("max window below average")
	}
}

func TestFunctionalModeExecutesRealFunctions(t *testing.T) {
	res, err := Run(Config{Mode: SNICOnly, Fn: nf.NAT, Functional: true},
		RunConfig{Duration: 20 * sim.Millisecond, RateGbps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no packets completed")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Mode: HAL, Fn: nf.NAT, Seed: 42}
	a, err := Run(cfg, short(40))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, short(40))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgGbps != b.AvgGbps || a.P99us != b.P99us || a.AvgPowerW != b.AvgPowerW {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestConfigValidationErrors(t *testing.T) {
	cases := []struct {
		cfg Config
		rc  RunConfig
	}{
		{Config{Mode: HostOnly, Fn: nf.NAT}, RunConfig{}},                                      // no duration
		{Config{Mode: SLB, Fn: nf.NAT}, short(10)},                                             // SLB without cores
		{Config{Mode: SLB, Fn: nf.NAT, SLBCores: 8, SLBFwdThGbps: 10}, short(10)},              // too many cores
		{Config{Mode: SLB, Fn: nf.NAT, SLBCores: 2}, short(10)},                                // no threshold
		{Config{Mode: HostOnly, Fn: nf.NAT, FnConfig: "bogus"}, short(10)},                     // bad fn config
		{Config{Mode: HostOnly, Fn: nf.NAT, PipelineOn: true, Pipeline: nf.ID(77)}, short(10)}, // bad pipeline
		{Config{Mode: HostOnly, Fn: nf.NAT, Fabric: cxl.FabricKind(9)}, short(10)},             // unknown fabric
	}
	for i, c := range cases {
		if _, err := Run(c.cfg, c.rc); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestNegativeRingSizeIsAnError checks that a negative ring size is
// rejected as a config error — by a standalone run and by an embedded
// fleet server alike — instead of panicking when the rings are built.
func TestNegativeRingSizeIsAnError(t *testing.T) {
	cfg := Config{Mode: HAL, Fn: nf.NAT, RingSize: -1}
	rc := RunConfig{Duration: sim.Millisecond, RateGbps: 10}
	if _, err := Run(cfg, rc); err == nil || !strings.Contains(err.Error(), "ring size") {
		t.Fatalf("Run with RingSize -1: err = %v, want a ring size error", err)
	}
	if _, err := NewInstance(cfg, rc, 0, sim.NewEngine(), packet.NewPool(), nil); err == nil ||
		!strings.Contains(err.Error(), "ring size") {
		t.Fatalf("NewInstance with RingSize -1: err = %v, want a ring size error", err)
	}
}

// TestShardsValidation pins the Shards contract of a single server:
// negative counts are a config error, 0/1 run serially, more shards are a
// usage error (shards apply to fleets), and a horizon beyond the composite
// seq key's time range is rejected up front rather than panicking mid-run.
func TestShardsValidation(t *testing.T) {
	if _, err := Run(Config{Mode: HAL, Fn: nf.NAT, Shards: -1},
		RunConfig{Duration: sim.Millisecond, RateGbps: 10}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT, Shards: 1},
		RunConfig{Duration: sim.Millisecond, RateGbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "serial" {
		t.Fatalf("Shards=1 engine = %q, want serial", res.Engine)
	}
	_, err = Run(Config{Mode: HAL, Fn: nf.NAT, Shards: 4},
		RunConfig{Duration: sim.Millisecond, RateGbps: 10})
	if err == nil || !strings.Contains(err.Error(), "fleets") {
		t.Fatalf("Shards=4 without a cluster: err = %v, want a shards-apply-to-fleets error", err)
	}
	if _, err := Run(Config{Mode: HAL, Fn: nf.NAT},
		RunConfig{Duration: sim.SeqMaxTime + 1, RateGbps: 10}); err == nil {
		t.Fatal("horizon beyond the seq-key time range accepted")
	}
}

func TestModeStrings(t *testing.T) {
	for m, s := range map[Mode]string{HostOnly: "Host", SNICOnly: "SNIC", HAL: "HAL", SLB: "SLB"} {
		if m.String() != s {
			t.Errorf("%d = %q", m, m.String())
		}
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode string")
	}
}

func TestOfferedRateMatchesTarget(t *testing.T) {
	res, err := Run(Config{Mode: HostOnly, Fn: nf.Count}, short(25))
	if err != nil {
		t.Fatal(err)
	}
	if res.OfferedGbps < 23 || res.OfferedGbps > 27 {
		t.Fatalf("offered %.1f Gbps, want ≈25", res.OfferedGbps)
	}
}

func TestSLBHostBurnsHostPower(t *testing.T) {
	// §IV: running SLB on the host keeps its cores busy-waiting, giving
	// ~40% lower system-wide EE than the SNIC alone at rates the SNIC
	// could have handled by itself.
	slbh, err := Run(Config{Mode: SLBHost, Fn: nf.Count, SLBFwdThGbps: 58}, short(50))
	if err != nil {
		t.Fatal(err)
	}
	snic, err := Run(Config{Mode: SNICOnly, Fn: nf.Count}, short(50))
	if err != nil {
		t.Fatal(err)
	}
	if slbh.EffGbpsPerW >= snic.EffGbpsPerW*0.8 {
		t.Fatalf("host-side SLB EE %.4f should be far below SNIC-only %.4f",
			slbh.EffGbpsPerW, snic.EffGbpsPerW)
	}
	// All traffic below FwdTh still lands on the SNIC.
	if slbh.SNICShare < 0.95 {
		t.Fatalf("below FwdTh everything goes to the SNIC: share %.2f", slbh.SNICShare)
	}
}

func TestSLBHostLatencyWorseThanHAL(t *testing.T) {
	// §IV: the doubled DPDK processing and extra PCIe crossings give
	// host-side SLB ~2.3x HAL's p99.
	slbh, err := Run(Config{Mode: SLBHost, Fn: nf.NAT, SLBFwdThGbps: 42}, short(30))
	if err != nil {
		t.Fatal(err)
	}
	hal, err := Run(Config{Mode: HAL, Fn: nf.NAT}, short(30))
	if err != nil {
		t.Fatal(err)
	}
	if slbh.P50us <= hal.P50us {
		t.Fatalf("host-side SLB p50 %.1f should exceed HAL %.1f (longer path)",
			slbh.P50us, hal.P50us)
	}
}

func TestSLBHostSplitsAboveThreshold(t *testing.T) {
	res, err := Run(Config{Mode: SLBHost, Fn: nf.NAT, SLBFwdThGbps: 40}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgGbps < 70 {
		t.Fatalf("host-side SLB delivered %.1f at 80 offered", res.AvgGbps)
	}
	if res.SNICShare < 0.3 || res.SNICShare > 0.7 {
		t.Fatalf("share %.2f, want ≈0.5 (SNIC gets FwdTh=40 of 80)", res.SNICShare)
	}
}

// TestInstancesOwnTheirCoherenceState: fleet servers built from one Config
// each get a private coherence directory, so Count traffic fed to one
// server leaves the other's coherence transfers at zero.
func TestInstancesOwnTheirCoherenceState(t *testing.T) {
	cfg := Config{Mode: HAL, Fn: nf.Count, Fabric: cxl.CXL}
	rc := RunConfig{Duration: 5 * sim.Millisecond, RateGbps: 70}
	if err := Normalize(&cfg, &rc); err != nil {
		t.Fatal(err)
	}
	eng, pool := sim.NewEngine(), packet.NewPool()
	fed, err := NewInstance(cfg, rc, 0, eng, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := NewInstance(cfg, rc, 1, eng, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTrafficSource(cfg, rc, eng, pool, fed.Ingress)
	if err != nil {
		t.Fatal(err)
	}
	fed.Start()
	idle.Start()
	src.Start()
	eng.RunUntil(rc.Duration)
	if got := fed.Collect().CoherenceRemote; got == 0 {
		t.Fatal("the fed server charged no coherence transfers")
	}
	if got := idle.Collect().CoherenceRemote; got != 0 {
		t.Fatalf("the idle server reports %d coherence transfers; its directory is shared", got)
	}
}

func TestSLBHostValidation(t *testing.T) {
	if _, err := Run(Config{Mode: SLBHost, Fn: nf.NAT}, short(10)); err == nil {
		t.Fatal("missing threshold should fail")
	}
	if _, err := Run(Config{Mode: SLBHost, Fn: nf.Count, SLBFwdThGbps: 20, Fabric: cxl.PCIe}, short(10)); err == nil {
		t.Fatal("stateful over PCIe should fail in SLBHost too")
	}
}

func TestPowerBreakdownSums(t *testing.T) {
	res, err := Run(Config{Mode: HAL, Fn: nf.NAT}, short(60))
	if err != nil {
		t.Fatal(err)
	}
	sum := res.IdleW + res.HostActiveW + res.SNICActiveW
	if diff := sum - res.AvgPowerW; diff > 0.01 || diff < -0.01 {
		t.Fatalf("breakdown %f+%f+%f != total %f", res.IdleW, res.HostActiveW, res.SNICActiveW, res.AvgPowerW)
	}
	// §III-B: the SNIC contributes only a small share of system power.
	if res.SNICActiveW > res.AvgPowerW*0.05 {
		t.Fatalf("SNIC active %f W should be a tiny fraction of %f W", res.SNICActiveW, res.AvgPowerW)
	}
	// The static floor dominates.
	if res.IdleW < 190 {
		t.Fatalf("idle floor %f W should be ≈194", res.IdleW)
	}
}

func TestPowerBreakdownSNICOnlyHasNoHostDraw(t *testing.T) {
	res, err := Run(Config{Mode: SNICOnly, Fn: nf.NAT}, short(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.HostActiveW != 0 {
		t.Fatalf("SNIC-only host draw = %f W", res.HostActiveW)
	}
	if res.SNICActiveW <= 0 {
		t.Fatal("active SNIC should draw something")
	}
}

func TestMixBlendsCapacity(t *testing.T) {
	// 50/50 NAT (42G SNIC cap) + KNN (16G SNIC cap): blended SNIC
	// capacity sits between the two pure capacities.
	pure, err := Run(Config{Mode: SNICOnly, Fn: nf.NAT}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Run(Config{Mode: SNICOnly, Fn: nf.NAT, MixOn: true, MixFn: nf.KNN, MixFraction: 0.5}, short(80))
	if err != nil {
		t.Fatal(err)
	}
	if mixed.AvgGbps >= pure.AvgGbps {
		t.Fatalf("mixing in KNN should reduce SNIC capacity: %.1f vs pure %.1f", mixed.AvgGbps, pure.AvgGbps)
	}
	if mixed.AvgGbps < 15 {
		t.Fatalf("blended capacity %.1f too low", mixed.AvgGbps)
	}
}

func TestMixDynamicLBPAdaptsToShift(t *testing.T) {
	// Start pure NAT, shift to 50% KNN mid-run: the dynamic LBP must
	// pull FwdTh down toward the blended capacity; a frozen threshold
	// profiled for pure NAT overloads the SNIC after the shift.
	base := Config{
		Mode: HAL, Fn: nf.NAT,
		MixOn: true, MixFn: nf.KNN,
		MixFractionBefore: 0, MixFraction: 0.5,
		MixShiftAt: 40 * sim.Millisecond,
		Seed:       3,
	}
	rc := RunConfig{Duration: 160 * sim.Millisecond, RateGbps: 70}
	dyn, err := Run(base, rc)
	if err != nil {
		t.Fatal(err)
	}
	frozen := base
	hc := halFrozenAt(42)
	frozen.HALConfig = hc
	frz, err := Run(frozen, rc)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic ends below the pure-NAT threshold (blended cap ≈ 23G).
	if dyn.FinalFwdTh > 35 {
		t.Fatalf("dynamic FwdTh %.1f should track the blended capacity", dyn.FinalFwdTh)
	}
	// Frozen-at-42 drops and/or inflates p99 after the shift.
	if frz.DropFraction < 0.01 && frz.P99us < 4*dyn.P99us {
		t.Fatalf("frozen threshold should hurt after the mix shift: drops %.3f p99 %.0f vs dyn %.0f",
			frz.DropFraction, frz.P99us, dyn.P99us)
	}
}

func TestMixValidation(t *testing.T) {
	if _, err := Run(Config{Mode: HAL, Fn: nf.NAT, MixOn: true, MixFn: nf.KNN, MixFraction: 1.5}, short(10)); err == nil {
		t.Fatal("fraction > 1 should fail")
	}
	if _, err := Run(Config{Mode: HAL, Fn: nf.NAT, MixOn: true, MixFn: nf.KNN, MixFraction: 0.5,
		PipelineOn: true, Pipeline: nf.REM}, short(10)); err == nil {
		t.Fatal("mix + pipeline should fail")
	}
}
