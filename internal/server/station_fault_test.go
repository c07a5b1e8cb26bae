package server

import (
	"slices"
	"testing"

	"halsim/internal/nf"
	"halsim/internal/packet"
	"halsim/internal/sim"
)

// flowPkt pins a packet to a queue by choosing SrcPort/ID so the RSS hash
// lands on core (for a station with n cores).
func flowPkt(id uint64, core, n int) *packet.Packet {
	p := stationPkt(id, 1500)
	p.SrcPort = 0
	p.ID = id - id%uint64(n) + uint64(core)
	return p
}

func TestStationFailCoreRehomesInflightAndBacklog(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(2, 8), 64, testJitter)
	var served []uint64
	st.onServed = func(p *packet.Packet) { served = append(served, p.ID) }

	// Three packets on core 0: one starts service, two queue behind it.
	for i := 0; i < 3; i++ {
		if !st.enqueue(flowPkt(uint64(10+i*2), 0, 2)) {
			t.Fatal("enqueue failed")
		}
	}
	// Let service start but not finish (MTU at 8 Gbps ≈ 1.5 µs).
	eng.RunUntil(100 * sim.Nanosecond)
	if st.inflightCount() != 1 {
		t.Fatalf("inflight = %d, want 1", st.inflightCount())
	}
	st.failCore(0)
	if st.crashes != 1 {
		t.Fatalf("crashes = %d", st.crashes)
	}
	if st.requeued != 3 {
		t.Fatalf("requeued = %d, want 3 (victim + 2 backlog)", st.requeued)
	}
	if st.aliveCores() != 1 {
		t.Fatalf("alive = %d", st.aliveCores())
	}
	eng.Run()
	if len(served) != 3 {
		t.Fatalf("served %d packets, want all 3 on the surviving core", len(served))
	}
	// Failing a dead core again is a no-op.
	st.failCore(0)
	if st.crashes != 1 {
		t.Fatal("double-fail should not recount")
	}
}

func TestStationCrashedCoreCompletionVoided(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(2, 8), 64, testJitter)
	var served int
	st.onServed = func(*packet.Packet) { served++ }
	st.enqueue(flowPkt(10, 0, 2))
	eng.RunUntil(100 * sim.Nanosecond)
	st.failCore(0)
	eng.Run()
	// The packet completes exactly once — on the surviving core, not via
	// the crashed core's stale completion event.
	if served != 1 || st.bytesDone != 1500 {
		t.Fatalf("served = %d, bytesDone = %d; want 1/1500", served, st.bytesDone)
	}
}

func TestStationAllCoresDeadDrops(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(2, 8), 64, testJitter)
	st.onServed = func(*packet.Packet) {}
	st.failCore(0)
	st.failCore(1)
	if st.enqueue(stationPkt(1, 1500)) {
		t.Fatal("enqueue to a dead station should fail")
	}
	if st.faultDrops != 1 {
		t.Fatalf("faultDrops = %d", st.faultDrops)
	}
}

func TestStationRecoverRejoinsRSS(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(2, 8), 64, testJitter)
	var served int
	st.onServed = func(*packet.Packet) { served++ }
	st.failCore(0)
	st.recoverCore(0)
	if st.aliveCores() != 2 {
		t.Fatalf("alive = %d", st.aliveCores())
	}
	// Arrivals hash to core 0 again and get served there.
	st.enqueue(flowPkt(10, 0, 2))
	eng.Run()
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
	// Recovering a live core is a no-op.
	st.recoverCore(0)
	st.recoverCore(-1)
	st.failCore(99)
}

// TestStationCapacityCallback: a HAL server's SNIC station reports every
// loss of alive cores to the LBP watchdog, which arms one failover snap
// per loss; a recovery, a repeated crash of a dead core and a host-side
// crash arm none.
func TestStationCapacityCallback(t *testing.T) {
	cfg := Config{Mode: HAL, Fn: nf.NAT}
	rc := RunConfig{Duration: sim.Millisecond, RateGbps: 10}
	inst, err := NewFleet(1, nil).NewInstance(cfg, rc, 0, sim.NewEngine(), packet.NewPool())
	if err != nil {
		t.Fatal(err)
	}
	r := &inst.r
	snic, pol := &r.snic.first, &r.hal.Policy
	for _, step := range []struct {
		do   func()
		want uint64
	}{
		{func() { snic.failCore(0) }, 1},
		{func() { snic.failCore(1) }, 2},
		{func() { snic.recoverCore(0) }, 2},
		{func() { snic.failCore(1) }, 2}, // already dead
		{func() { r.host.first.failCore(0) }, 2},
		{func() { snic.failCore(0) }, 3},
	} {
		step.do()
		if pol.FailoverEvents != step.want {
			t.Fatalf("after %d of %d SNIC cores crashed: %d failover snaps armed, want %d",
				len(snic.cores)-snic.aliveCores(), len(snic.cores), pol.FailoverEvents, step.want)
		}
	}
}

// TestStationStaleCompletionSparesTheNextPacket: a core crashes mid-service,
// recovers, and starts serving a different packet before the crashed
// service's completion event fires. A completion takes its packet from the
// core's in-flight slot, so only the generation check keeps the stale event
// from completing the new packet early: it must be voided, and each packet
// must complete exactly once, at its own service's end.
func TestStationStaleCompletionSparesTheNextPacket(t *testing.T) {
	eng := sim.NewEngine()
	// Two cores at 4 Gbps each: an MTU packet takes 3 µs, without jitter.
	st := newStation(eng, "t", testProfile(2, 8), 64, testJitter)
	type done struct {
		id uint64
		at sim.Time
	}
	var served []done
	st.onServed = func(p *packet.Packet) { served = append(served, done{p.ID, eng.Now()}) }

	first, second := flowPkt(10, 0, 2), flowPkt(20, 0, 2)
	st.enqueue(first) // core 0 serves it over [0, 3000)
	eng.RunUntil(100)
	st.failCore(0) // first moves to core 1: [100, 3100)
	st.recoverCore(0)
	eng.RunUntil(200)
	st.enqueue(second) // core 0 serves it over [200, 3200)
	eng.RunUntil(3050)
	if len(served) != 0 {
		t.Fatalf("served %v by 3.05 µs: the crashed service's completion at 3 µs was not voided", served)
	}
	eng.Run()
	if want := []done{{first.ID, 3100}, {second.ID, 3200}}; !slices.Equal(served, want) {
		t.Fatalf("served %v, want %v", served, want)
	}
	if st.bytesDone != 3000 {
		t.Fatalf("bytesDone = %d, want 3000", st.bytesDone)
	}
}

func TestStationCrashUnwindsBusyTime(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(2, 8), 64, testJitter)
	st.onServed = func(*packet.Packet) {}
	st.enqueue(flowPkt(10, 0, 2))
	eng.RunUntil(100 * sim.Nanosecond)
	st.failCore(0)
	// The unwind refunds the cut-short remainder; the rehomed service adds
	// its own time. busyTime must stay non-negative and finite.
	eng.Run()
	if st.busyTime < 0 {
		t.Fatalf("busyTime = %v went negative", st.busyTime)
	}
}

func TestStationSetProfilePinsServers(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(4, 40), 64, testJitter)
	st.setProfile(testProfile(8, 2))
	if st.prof.Servers != 4 {
		t.Fatalf("servers = %d, want pinned 4", st.prof.Servers)
	}
	// The swapped profile keeps its per-core rate (2 Gbps over 8 cores)
	// on the pinned 4 cores.
	if st.prof.MaxGbps != 1 || st.prof.PerServerGbps() != 0.25 {
		t.Fatalf("MaxGbps = %v (%v per core), want swapped 1 (0.25 per core)",
			st.prof.MaxGbps, st.prof.PerServerGbps())
	}
}
