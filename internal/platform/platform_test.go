package platform

import (
	"testing"

	"halsim/internal/nf"
	"halsim/internal/rng"
	"halsim/internal/sim"
)

func TestProfilesTotal(t *testing.T) {
	for _, pl := range []*Platform{BlueField2(), HostXeon()} {
		for _, fn := range nf.All {
			if !pl.Supports(fn) {
				t.Errorf("%s missing profile for %v", pl.Name, fn)
			}
			p := pl.Profile(fn)
			if p.MaxGbps <= 0 || p.Servers <= 0 {
				t.Errorf("%s/%v: degenerate profile %+v", pl.Name, fn, p)
			}
		}
	}
}

func TestProfilePanicsOnMissing(t *testing.T) {
	bf3 := BlueField3()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing profile")
		}
	}()
	// BF-3 (Fig 10) deliberately has no accelerator profiles like KVS...
	// it has all CPU profiles; force a missing one via an invalid ID.
	bf3.Profile(nf.ID(99))
}

func TestServiceTimeMatchesSaturation(t *testing.T) {
	// k servers each busy MeanServiceTime per MTU packet must sustain
	// exactly MaxGbps — the calibration invariant of byteNS.
	for _, pl := range []*Platform{BlueField2(), HostXeon(), BlueField3(), SapphireRapids()} {
		for _, fn := range nf.All {
			if !pl.Supports(fn) {
				continue
			}
			p := pl.Profile(fn)
			st := p.MeanServiceTime(1500)
			gbps := float64(p.Servers) * 1500 * 8 / float64(st)
			if gbps > p.MaxGbps*1.02 || gbps < p.MaxGbps*0.95 {
				t.Errorf("%s/%v: implied %0.2f Gbps vs calibrated MaxGbps %0.2f",
					pl.Name, fn, gbps, p.MaxGbps)
			}
			// The jitter+overhead budget must leave real byte work so
			// service time still scales with packet size.
			det := p.ServiceTime(1500, nil)
			if det <= p.OverheadNS {
				t.Errorf("%s/%v: byte component vanished", pl.Name, fn)
			}
		}
	}
}

func TestJitterIncreasesServiceTime(t *testing.T) {
	p := BlueField2().Profile(nf.KNN)
	det := p.ServiceTime(1500, nil)
	r := rng.Stream(1, rng.Payload, 0)
	var sum sim.Time
	const n = 1000
	for i := 0; i < n; i++ {
		s := p.ServiceTime(1500, &r)
		if s < det {
			t.Fatal("jittered service below deterministic floor")
		}
		sum += s
	}
	mean := sum / n
	if mean <= det {
		t.Fatal("jitter should raise the mean")
	}
}

func TestHostBeatsSNICOnSoftwareFunctions(t *testing.T) {
	bf2, host := BlueField2(), HostXeon()
	for _, fn := range []nf.ID{nf.KVS, nf.Count, nf.EMA, nf.NAT, nf.BM25, nf.KNN, nf.Bayes} {
		if host.Profile(fn).MaxGbps <= bf2.Profile(fn).MaxGbps {
			t.Errorf("%v: host (%0.1f) must out-throughput SNIC CPU (%0.1f)",
				fn, host.Profile(fn).MaxGbps, bf2.Profile(fn).MaxGbps)
		}
	}
}

func TestSNICWinsCompression(t *testing.T) {
	// §III-A: Skylake-era QAT Deflate reaches only 46–72% of the SNIC
	// engine's throughput.
	bf2, host := BlueField2(), HostXeon()
	ratio := host.Profile(nf.Comp).MaxGbps / bf2.Profile(nf.Comp).MaxGbps
	if ratio < 0.4 || ratio > 0.8 {
		t.Fatalf("comp host/SNIC ratio %0.2f outside the paper's 0.46–0.72", ratio)
	}
}

func TestCryptoHostAdvantage(t *testing.T) {
	bf2, host := BlueField2(), HostXeon()
	if host.Profile(nf.Crypto).MaxGbps <= bf2.Profile(nf.Crypto).MaxGbps {
		t.Fatal("QAT crypto must beat the SNIC PKA")
	}
}

func TestREMComplexRulesetFlipsWinner(t *testing.T) {
	bf2 := BlueField2()
	liteHost := REMComplexHost()
	// lite: SNIC accel 19× host CPU (§III-A).
	ratio := bf2.Profile(nf.REM).MaxGbps / liteHost.MaxGbps
	if ratio < 10 || ratio > 30 {
		t.Fatalf("lite SNIC/host ratio %0.1f, want ~19", ratio)
	}
	// tea: host CPU ~93% faster than the SNIC accelerator.
	teaSNIC := REMSimpleSNICAccel()
	hostTea := HostXeon().Profile(nf.REM)
	r := hostTea.MaxGbps / teaSNIC.MaxGbps
	if r < 1.5 || r > 2.5 {
		t.Fatalf("tea host/SNIC ratio %0.2f, want ~1.93", r)
	}
}

func TestPowerModelAnchors(t *testing.T) {
	m := snicSidePower()
	// Idle.
	if got := m.Watts(false, 0, 0, 0); got != 194 {
		t.Fatalf("idle = %0.1f W, want 194", got)
	}
	// SNIC-only at full util ≈ paper's ~200 W.
	snicOnly := m.Watts(false, 0, 40, 1)
	if snicOnly < 198 || snicOnly < 194 || snicOnly > 210 {
		t.Fatalf("SNIC-only = %0.1f W, want ≈200", snicOnly)
	}
	// Host polling, high rate: Fig 9's 226–333 W envelope.
	hostHigh := m.Watts(true, 80, 0, 0)
	if hostHigh < 250 || hostHigh > 340 {
		t.Fatalf("host@80G = %0.1f W, want within Fig 9 envelope", hostHigh)
	}
	// Host polling at near-zero rate must still burn poll power — the
	// §IV argument for not running SLB on the host.
	hostIdlePoll := m.Watts(true, 0.5, 0, 0)
	if hostIdlePoll < 240 {
		t.Fatalf("host poll floor = %0.1f W, should reflect busy-wait burn", hostIdlePoll)
	}
	// Monotone in rate.
	if m.Watts(true, 50, 0, 0) <= m.Watts(true, 10, 0, 0) {
		t.Fatal("power must grow with host rate")
	}
	// Utilization clamp.
	if m.Watts(false, 0, 10, 5) != m.Watts(false, 0, 10, 1) {
		t.Fatal("snic util should clamp at 1")
	}
}

func TestBF3StillLosesToSPR(t *testing.T) {
	bf3, spr := BlueField3(), SapphireRapids()
	for _, fn := range nf.All {
		if !bf3.Supports(fn) || !spr.Supports(fn) {
			continue
		}
		b, s := bf3.Profile(fn), spr.Profile(fn)
		if b.MaxGbps >= s.MaxGbps {
			t.Errorf("%v: BF-3 (%0.1f) should trail SPR (%0.1f)", fn, b.MaxGbps, s.MaxGbps)
		}
	}
	// "up to 80% lower throughput": at least one function shows ≥4×.
	worst := 0.0
	for _, fn := range nf.All {
		if !bf3.Supports(fn) || !spr.Supports(fn) {
			continue
		}
		r := spr.Profile(fn).MaxGbps / bf3.Profile(fn).MaxGbps
		if r > worst {
			worst = r
		}
	}
	if worst < 4 {
		t.Fatalf("worst SPR/BF3 ratio %0.1f, want ≥4 (80%% lower)", worst)
	}
}

func TestBF3DoublesBF2SoftwareThroughput(t *testing.T) {
	bf2, bf3 := BlueField2(), BlueField3()
	for _, fn := range []nf.ID{nf.NAT, nf.Count} {
		if bf3.Profile(fn).MaxGbps != bf2.Profile(fn).MaxGbps*2 {
			t.Errorf("%v: BF-3 should double BF-2 software throughput", fn)
		}
		if bf3.Profile(fn).Servers != 16 {
			t.Errorf("%v: BF-3 should have 16 cores", fn)
		}
	}
}

func TestMinLatencyOrdering(t *testing.T) {
	bf2, host := BlueField2(), HostXeon()
	// §III-A: for software functions the SNIC CPU has 1.1–27× higher
	// latency than the host CPU. The no-queueing latency of an MTU packet
	// is its deterministic service time; the PCIe/DMA crossing is the
	// server model's (PCIeCrossNS, SNICCloserNS), not the profile's.
	for _, fn := range []nf.ID{nf.KVS, nf.EMA, nf.KNN, nf.Bayes, nf.BM25} {
		s := bf2.Profile(fn).ServiceTime(1500, nil)
		h := host.Profile(fn).ServiceTime(1500, nil)
		if s <= h {
			t.Errorf("%v: SNIC min latency %v should exceed host %v", fn, s, h)
		}
	}
}

func TestTable1Matrix(t *testing.T) {
	tab := Table1()
	if len(tab) != 23 {
		t.Fatalf("Table I rows = %d, want 23", len(tab))
	}
	qat := 0
	for _, s := range tab {
		if !s.ISA {
			t.Errorf("%s: every Table I function has ISA support", s.Function)
		}
		if s.QAT {
			qat++
		}
	}
	if qat != 9 {
		t.Fatalf("QAT-supported functions = %d, want 8", qat)
	}
}

func TestUnitKindString(t *testing.T) {
	if CPU.String() != "cpu" || Accelerator.String() != "accel" {
		t.Fatal("unit kind strings")
	}
}

func TestInterconnectConstants(t *testing.T) {
	if HLBLatencyNS != 800*sim.Nanosecond {
		t.Fatal("HLB latency should match the paper's 800 ns")
	}
	if SNICCloserNS != 300*sim.Nanosecond || UPIHopNS != 500*sim.Nanosecond {
		t.Fatal("interconnect constants drifted from §III-A")
	}
}
