package core

import (
	"math"
	"testing"

	"halsim/internal/packet"
	"halsim/internal/sim"
)

var (
	snicAddr = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 1}, IP: packet.IPv4{10, 0, 0, 1}}
	hostAddr = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 2}, IP: packet.IPv4{10, 0, 0, 2}}
	cliAddr  = packet.Addr{MAC: packet.MAC{2, 0, 0, 0, 0, 9}, IP: packet.IPv4{10, 0, 0, 9}}
)

func mtu() *packet.Packet {
	return packet.New(cliAddr, snicAddr, 1000, 2000, make([]byte, packet.MaxPayload))
}

type fakeQueues struct{ occ int }

func (f *fakeQueues) MaxOccupancy() int { return f.occ }

func TestMonitorRate(t *testing.T) {
	m := NewTrafficMonitor(10 * sim.Microsecond)
	// 25 MTU packets in 10µs ≈ 25*1514*8/10000ns = 30.3 Gbps.
	for i := 0; i < 25; i++ {
		m.Observe(mtu())
	}
	r := m.Roll()
	want := 25.0 * 1514 * 8 / 10000
	if math.Abs(r-want) > 0.01 {
		t.Fatalf("rate = %.2f Gbps, want %.2f", r, want)
	}
	if m.RateGbps() != r {
		t.Fatal("RateGbps() should return the last rolled value")
	}
	if m.Roll() != 0 {
		t.Fatal("empty window should report 0")
	}
	// 1250 bytes in 10µs are 125 MB/s, exactly 1 Gbps.
	m.Observe(&packet.Packet{WireLen: 1250})
	if r := m.Roll(); math.Abs(r-1) > 1e-9 {
		t.Fatalf("rate = %v Gbps, want 1", r)
	}
	// Observe and Roll run once per packet and once per monitor tick.
	p := mtu()
	if a := testing.AllocsPerRun(200, func() { m.Observe(p) }); a != 0 {
		t.Errorf("Observe allocates %v per call", a)
	}
	if a := testing.AllocsPerRun(200, func() { m.Roll() }); a != 0 {
		t.Errorf("Roll allocates %v per call", a)
	}
}

func TestDirectorKeepsBelowThreshold(t *testing.T) {
	d := NewTrafficDirector(hostAddr, 40)
	d.SetRate(30)
	for i := 0; i < 100; i++ {
		p := mtu()
		if d.Route(p) {
			t.Fatal("below threshold nothing should divert")
		}
		if p.Dst != snicAddr {
			t.Fatal("a kept packet must keep its SNIC destination")
		}
	}
}

func TestDirectorDivertsExcessShare(t *testing.T) {
	d := NewTrafficDirector(hostAddr, 30)
	d.SetRate(80) // keep 3/8 of traffic
	const n = 8000
	kept := 0
	for i := 0; i < n; i++ {
		p := mtu()
		if d.Route(p) != (p.Dst.IP == hostAddr.IP) {
			t.Fatal("Route's verdict must match the packet's destination")
		}
		if p.Dst.IP == snicAddr.IP {
			kept++
		}
	}
	keptFrac := float64(kept) / n
	if math.Abs(keptFrac-30.0/80) > 0.01 {
		t.Fatalf("kept fraction = %.3f, want 0.375", keptFrac)
	}
}

func TestDirectorRewritesDivertedPackets(t *testing.T) {
	d := NewTrafficDirector(hostAddr, 0) // divert everything
	d.SetRate(50)
	p := mtu()
	if !d.Route(p) {
		t.Fatal("with FwdTh=0 every packet diverts")
	}
	if p.Dst != hostAddr {
		t.Fatal("diverted packet must carry the host identity")
	}
	if p.Src != cliAddr {
		t.Fatal("divert must keep the client's source identity")
	}
}

func TestDirectorZeroRateKeeps(t *testing.T) {
	d := NewTrafficDirector(hostAddr, 10)
	d.SetRate(0)
	if d.Route(mtu()) {
		t.Fatal("zero observed rate keeps everything on the SNIC")
	}
}

func TestMergerRewritesHostResponses(t *testing.T) {
	m := NewTrafficMerger(snicAddr, hostAddr)
	resp := packet.New(hostAddr, cliAddr, 2000, 1000, []byte("resp"))
	m.Egress(resp)
	if resp.Src != snicAddr {
		t.Fatal("host response must masquerade as SNIC")
	}
	if resp.Dst != cliAddr {
		t.Fatal("merge must keep the client destination")
	}
}

func TestMergerPassesSNICResponses(t *testing.T) {
	m := NewTrafficMerger(snicAddr, hostAddr)
	resp := packet.New(snicAddr, cliAddr, 2000, 1000, nil)
	m.Egress(resp)
	if resp.Src != snicAddr || resp.Dst != cliAddr {
		t.Fatal("SNIC responses pass through untouched")
	}
}

func lbpSetup(t *testing.T, occ int) (*LBP, *TrafficDirector, *fakeQueues) {
	t.Helper()
	cfg := DefaultConfig(snicAddr, hostAddr)
	d := NewTrafficDirector(hostAddr, 0)
	q := &fakeQueues{occ: occ}
	l, err := NewLBP(cfg, &d, q)
	if err != nil {
		t.Fatal(err)
	}
	return &l, &d, q
}

func TestLBPRaisesWhenUnderutilized(t *testing.T) {
	l, d, _ := lbpSetup(t, 0) // empty queues
	start := d.FwdTh()
	// SNIC throughput right at the threshold → binding → occupancy low
	// → raise.
	l.OnSNICBurst(int(start * 1e9 / 8 * 100e-6)) // start Gbps over 100µs
	l.Tick()
	if d.FwdTh() <= start {
		t.Fatalf("FwdTh should rise: %v -> %v", start, d.FwdTh())
	}
	if l.Adjustments != 1 {
		t.Fatalf("adjustments = %d", l.Adjustments)
	}
}

func TestLBPLowersWhenOverloaded(t *testing.T) {
	l, d, _ := lbpSetup(t, 1000) // deep queues
	start := d.FwdTh()
	l.OnSNICBurst(int(start * 1e9 / 8 * 100e-6))
	l.Tick()
	if d.FwdTh() >= start {
		t.Fatalf("FwdTh should fall: %v -> %v", start, d.FwdTh())
	}
}

func TestLBPHoldsBetweenWatermarks(t *testing.T) {
	l, d, _ := lbpSetup(t, 8) // between WMLow=2 and WMHigh=16
	start := d.FwdTh()
	l.OnSNICBurst(int(start * 1e9 / 8 * 100e-6))
	l.Tick()
	if d.FwdTh() != start {
		t.Fatal("FwdTh should hold between watermarks")
	}
}

func TestLBPIgnoresWhenNotBinding(t *testing.T) {
	// SNIC throughput far below FwdTh (light load): Algorithm 1 line 2
	// fails, no adjustment even with empty queues.
	l, d, _ := lbpSetup(t, 0)
	l.OnSNICBurst(0)
	l.Tick()
	if d.FwdTh() != DefaultConfig(snicAddr, hostAddr).InitialFwdThGbps {
		t.Fatal("non-binding threshold must not change")
	}
	if l.Adjustments != 0 {
		t.Fatal("no adjustment expected")
	}
}

func TestLBPClampsToLineRateAndZero(t *testing.T) {
	cfg := DefaultConfig(snicAddr, hostAddr)
	cfg.StepThGbps = 60
	cfg.InitialFwdThGbps = 90
	d := NewTrafficDirector(hostAddr, 0)
	q := &fakeQueues{occ: 0}
	l, _ := NewLBP(cfg, &d, q)
	l.OnSNICBurst(int(90 * 1e9 / 8 * 100e-6))
	l.Tick()
	if d.FwdTh() != 100 {
		t.Fatalf("FwdTh = %v, want clamp at 100", d.FwdTh())
	}
	q.occ = 10000
	l.OnSNICBurst(int(100 * 1e9 / 8 * 100e-6))
	l.Tick() // 100-60=40
	l.OnSNICBurst(int(40 * 1e9 / 8 * 100e-6))
	l.Tick() // 40-60 → clamp 0
	if d.FwdTh() != 0 {
		t.Fatalf("FwdTh = %v, want clamp at 0", d.FwdTh())
	}
}

func TestLBPAdaptiveStepAccelerates(t *testing.T) {
	cfg := DefaultConfig(snicAddr, hostAddr)
	cfg.AdaptiveStep = true
	d := NewTrafficDirector(hostAddr, 0)
	q := &fakeQueues{occ: 0}
	l, _ := NewLBP(cfg, &d, q)
	feed := func() { l.OnSNICBurst(int(d.FwdTh() * 1e9 / 8 * 100e-6)) }
	feed()
	l.Tick()
	afterOne := d.FwdTh() - cfg.InitialFwdThGbps
	feed()
	l.Tick()
	afterTwo := d.FwdTh() - cfg.InitialFwdThGbps - afterOne
	if afterTwo <= afterOne {
		t.Fatalf("adaptive step should grow: %v then %v", afterOne, afterTwo)
	}
	// Reversal resets the step.
	q.occ = 10000
	feed()
	l.Tick()
	drop := afterOne + afterTwo + cfg.InitialFwdThGbps - d.FwdTh()
	if drop != cfg.StepThGbps {
		t.Fatalf("reversal step = %v, want reset to %v", drop, cfg.StepThGbps)
	}
}

func TestLBPConvergesToServiceRate(t *testing.T) {
	// Closed-loop sanity: SNIC can absorb exactly 40 Gbps. Offered load
	// is 80. Queues report high occupancy whenever FwdTh > 40, low
	// occupancy whenever FwdTh < 40. LBP must settle near 40.
	cfg := DefaultConfig(snicAddr, hostAddr)
	cfg.InitialFwdThGbps = 5
	d := NewTrafficDirector(hostAddr, 0)
	q := &fakeQueues{}
	l, _ := NewLBP(cfg, &d, q)
	const capacity = 40.0
	for i := 0; i < 300; i++ {
		snicRate := math.Min(d.FwdTh(), capacity)
		l.OnSNICBurst(int(snicRate * 1e9 / 8 * 100e-6))
		if d.FwdTh() > capacity {
			q.occ = 10000
		} else {
			q.occ = 0
		}
		l.Tick()
	}
	if math.Abs(d.FwdTh()-capacity) > 2*cfg.StepThGbps {
		t.Fatalf("FwdTh settled at %v, want ≈%v", d.FwdTh(), capacity)
	}
	if l.Ticks != 300 {
		t.Fatalf("ticks = %d", l.Ticks)
	}
}

func TestHALAssemblyAndIngress(t *testing.T) {
	var h HAL
	if err := h.Init(DefaultConfig(snicAddr, hostAddr), &fakeQueues{}); err != nil {
		t.Fatal(err)
	}
	// Feed 10µs of 80 Gbps (66 MTU packets), roll, then route more.
	for i := 0; i < 66; i++ {
		h.Ingress(mtu())
	}
	h.RollMonitor()
	if h.Monitor.RateGbps() < 70 {
		t.Fatalf("monitor rate = %v", h.Monitor.RateGbps())
	}
	var diverted int
	for i := 0; i < 800; i++ {
		if h.Ingress(mtu()) {
			diverted++
		}
	}
	if diverted == 0 {
		t.Fatal("80 Gbps against a 10 Gbps threshold must divert")
	}
	// Egress path.
	resp := packet.New(hostAddr, cliAddr, 1, 2, nil)
	h.Egress(resp)
	if resp.Src != snicAddr {
		t.Fatal("egress merger should fire")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MonitorPeriod: 0, LBPPeriod: 1, StepThGbps: 1, MaxFwdThGbps: 1, WMLow: 1, WMHigh: 2},
		{MonitorPeriod: 1, LBPPeriod: 1, StepThGbps: 0, MaxFwdThGbps: 1, WMLow: 1, WMHigh: 2},
		{MonitorPeriod: 1, LBPPeriod: 1, StepThGbps: 1, MaxFwdThGbps: 1, WMLow: 5, WMHigh: 2},
	}
	for i, cfg := range bad {
		if err := new(HAL).Init(cfg, &fakeQueues{}); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
		if _, err := NewLBP(cfg, new(TrafficDirector), &fakeQueues{}); err == nil {
			t.Errorf("LBP config %d should fail validation", i)
		}
	}
}

func TestHLBLatencyBudget(t *testing.T) {
	if IngressLatency+EgressLatency != 800*sim.Nanosecond {
		t.Fatal("HLB one-way latencies must sum to the paper's 800 ns RTT adder")
	}
}

func BenchmarkDirectorRoute(b *testing.B) {
	d := NewTrafficDirector(hostAddr, 30)
	d.SetRate(80)
	p := mtu()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Dst = snicAddr
		d.Route(p)
	}
}

func TestLBPFrozenNeverAdjusts(t *testing.T) {
	cfg := DefaultConfig(snicAddr, hostAddr)
	cfg.Frozen = true
	cfg.InitialFwdThGbps = 33
	d := NewTrafficDirector(hostAddr, 0)
	q := &fakeQueues{occ: 100000}
	l, err := NewLBP(cfg, &d, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		l.OnSNICBurst(int(33 * 1e9 / 8 * 100e-6))
		l.Tick()
	}
	if d.FwdTh() != 33 || l.Adjustments != 0 {
		t.Fatalf("frozen policy moved: FwdTh=%v adjustments=%d", d.FwdTh(), l.Adjustments)
	}
	if l.Ticks != 50 {
		t.Fatal("ticks should still count")
	}
	if l.SNICTPGbps() < 30 {
		t.Fatal("SNIC TP estimation should still run while frozen")
	}
}
