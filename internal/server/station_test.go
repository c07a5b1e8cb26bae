package server

import (
	"testing"

	"halsim/internal/core"
	"halsim/internal/dpdk"
	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/platform"
	"halsim/internal/rng"
	"halsim/internal/sim"
	"halsim/internal/trace"
)

func testProfile(servers int, maxGbps float64) platform.FnProfile {
	return platform.FnProfile{
		Unit:    platform.CPU,
		Servers: servers,
		MaxGbps: maxGbps,
	}
}

func stationPkt(id uint64, wire int) *packet.Packet {
	p := packet.New(clientAddr, snicAddr, uint16(id), 9, nil)
	p.ID = id
	p.WireLen = wire
	return p
}

func TestStationServesFIFOPerQueue(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(1, 8), 64, testJitter)
	var served []uint64
	st.onServed = func(p *packet.Packet) { served = append(served, p.ID) }
	for i := uint64(1); i <= 5; i++ {
		p := stationPkt(i, 1500)
		p.SrcPort = 7 // same flow → same queue
		if !st.enqueue(p) {
			t.Fatal("enqueue failed")
		}
	}
	eng.Run()
	if len(served) != 5 {
		t.Fatalf("served %d", len(served))
	}
	for i, id := range served {
		if id != uint64(i+1) {
			t.Fatalf("order %v", served)
		}
	}
	if st.bytesDone != 5*1500 {
		t.Fatalf("bytesDone = %d", st.bytesDone)
	}
}

func TestStationServiceRateMatchesProfile(t *testing.T) {
	// 1 server at 8 Gbps: an MTU packet takes 1500·8/8 = 1500 ns.
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(1, 8), 64, testJitter)
	var doneAt []sim.Time
	st.onServed = func(*packet.Packet) { doneAt = append(doneAt, eng.Now()) }
	p1, p2 := stationPkt(1, 1500), stationPkt(2, 1500)
	p1.SrcPort, p2.SrcPort = 7, 7
	st.enqueue(p1)
	st.enqueue(p2)
	eng.Run()
	if doneAt[0] != 1500 || doneAt[1] != 3000 {
		t.Fatalf("completions at %v, want [1500 3000]", doneAt)
	}
}

func TestStationParallelServers(t *testing.T) {
	// 2 servers: two packets on different queues complete concurrently.
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(2, 16), 64, testJitter)
	var n int
	st.onServed = func(*packet.Packet) { n++ }
	a, b := stationPkt(0, 1500), stationPkt(1, 1500)
	a.SrcPort, b.SrcPort = 0, 0 // IDs 0 and 1 hash to different queues
	st.enqueue(a)
	st.enqueue(b)
	if st.busyCores() != 2 {
		t.Fatalf("busy = %d, want both cores", st.busyCores())
	}
	eng.RunUntil(1600)
	if n != 2 {
		t.Fatalf("completed %d in one service time, want 2 (parallel)", n)
	}
}

func TestStationTailDrop(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(1, 1), 2, testJitter)
	for i := uint64(0); i < 10; i++ {
		p := stationPkt(i, 1500)
		p.SrcPort = 7
		st.enqueue(p)
	}
	if st.port.TotalDrops() == 0 {
		t.Fatal("tiny ring must tail-drop")
	}
}

func TestStationExtraServiceTime(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(1, 8), 64, testJitter)
	st.extra = func(*packet.Packet) sim.Time { return 1000 }
	var done sim.Time
	st.onServed = func(*packet.Packet) { done = eng.Now() }
	st.enqueue(stationPkt(1, 1500))
	eng.Run()
	if done != 2500 {
		t.Fatalf("done at %v, want 1500+1000", done)
	}
}

func TestStationWakePenaltyDelaysFirstService(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(1, 8), 64, testJitter)
	st.sleep = &dpdk.SleepController{IdleThreshold: 10, WakePenalty: 5000}
	// Put the controller to sleep.
	st.sleep.OnIdle(0)
	eng.RunUntil(100)
	st.sleep.OnIdle(eng.Now())
	if !st.sleep.Asleep() {
		t.Fatal("controller should be asleep")
	}
	var done sim.Time
	st.onServed = func(*packet.Packet) { done = eng.Now() }
	st.enqueue(stationPkt(1, 1500))
	eng.Run()
	if done != 100+5000+1500 {
		t.Fatalf("done at %v, want wake penalty + service", done)
	}
	if st.sleep.Wakeups != 1 {
		t.Fatal("one wakeup expected")
	}
}

func TestStationUtilization(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(1, 8), 64, testJitter)
	st.enqueue(stationPkt(1, 1500)) // 1500 ns of work
	eng.RunUntil(3000)
	if got := st.utilization(3000); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if st.utilization(0) != 0 {
		t.Fatal("zero elapsed should report 0")
	}
}

func TestStationWindowBytes(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(1, 8), 64, testJitter)
	st.enqueue(stationPkt(1, 1500))
	eng.Run()
	if st.takeWindowBytes() != 1500 {
		t.Fatal("window bytes")
	}
	if st.takeWindowBytes() != 0 {
		t.Fatal("window should reset")
	}
}

func TestClientConstantRate(t *testing.T) {
	eng := sim.NewEngine()
	var gotBytes int
	c := &client{
		eng:      eng,
		rng:      rng.Stream(1, rng.Client, 0),
		addr:     clientAddr,
		dst:      snicAddr,
		rateGbps: 10,
		sizes:    mtuSizes(),
		gen:      dryNAT(t),
		emit:     func(p *packet.Packet, _ sim.Time) { gotBytes += p.WireLen },
	}
	c.start()
	eng.RunUntil(10 * sim.Millisecond)
	gbps := float64(gotBytes) * 8 / float64(10*sim.Millisecond)
	if gbps < 8.5 || gbps > 11.5 {
		t.Fatalf("offered %.2f Gbps, want ≈10", gbps)
	}
	c.stop()
	before := gotBytes
	eng.RunUntil(20 * sim.Millisecond)
	if gotBytes != before {
		t.Fatal("stopped client kept sending")
	}
}

func TestClientZeroRateIdles(t *testing.T) {
	eng := sim.NewEngine()
	sent := 0
	c := &client{
		eng: eng, rng: rng.Stream(1, rng.Client, 0), sizes: mtuSizes(), gen: dryNAT(t),
		emit: func(*packet.Packet, sim.Time) { sent++ },
	}
	c.start()
	eng.RunUntil(5 * sim.Millisecond)
	if sent != 0 {
		t.Fatal("zero rate must send nothing")
	}
}

func TestClientMeasuredWindowGating(t *testing.T) {
	eng := sim.NewEngine()
	c := &client{
		eng: eng, rng: rng.Stream(1, rng.Client, 0), sizes: mtuSizes(), gen: dryNAT(t),
		rateGbps:  10,
		warmupEnd: 5 * sim.Millisecond,
		emit:      func(*packet.Packet, sim.Time) {},
	}
	c.start()
	eng.RunUntil(4 * sim.Millisecond)
	if c.sentPkts != 0 {
		t.Fatal("warmup packets must not count as offered")
	}
	eng.RunUntil(10 * sim.Millisecond)
	if c.sentPkts == 0 {
		t.Fatal("post-warmup packets must count")
	}
}

// test helpers

// testJitter is the jitter stream test stations draw from.
var testJitter = rng.Stream(1, rng.Jitter, 0)

func mtuSizes() *trace.SizeDist { return trace.MTUOnly() }

// dryNAT is the payload source of a client whose payloads nothing reads.
func dryNAT(t *testing.T) payloadGen {
	_, gen, err := newFn(nf.NAT, "")
	if err != nil {
		t.Fatal(err)
	}
	return payloadGen{gen: gen, dry: true}
}

func halFrozenAt(gbps float64) *core.Config {
	c := core.DefaultConfig(packet.Addr{}, packet.Addr{})
	c.Frozen = true
	c.InitialFwdThGbps = gbps
	return &c
}

func TestClientSurvivesNearZeroTraceRates(t *testing.T) {
	// Regression: a trace epoch with a denormal-small positive rate must
	// not overflow the inter-arrival gap into a negative Schedule.
	eng := sim.NewEngine()
	sent := 0
	c := &client{
		eng: eng, rng: rng.Stream(1, rng.Client, 0), sizes: mtuSizes(), gen: dryNAT(t),
		rateGbps: 1e-18, // gap >> int64 ns range
		emit:     func(*packet.Packet, sim.Time) { sent++ },
		tracegen: trace.NewWorkloadGenerator(trace.Cache, 77),
	}
	// tracegen non-nil → epoch-censoring path must fire instead of
	// overflowing; the epoch timer then re-draws real rates.
	c.start()
	eng.RunUntil(20 * sim.Millisecond)
	// No panic is the main assertion; the cache trace usually sends
	// something within 20 epochs.
	_ = sent
}

func TestClientConstantTinyRateClamped(t *testing.T) {
	eng := sim.NewEngine()
	c := &client{
		eng: eng, rng: rng.Stream(1, rng.Client, 0), sizes: mtuSizes(),
		rateGbps: 1e-18,
		emit:     func(*packet.Packet, sim.Time) {},
	}
	c.start() // must not panic: gap clamps to an hour
	eng.RunUntil(5 * sim.Millisecond)
}
