package server

import (
	"testing"

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
	if st.pktsDone != 3 {
		t.Fatalf("pktsDone = %d", st.pktsDone)
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
	if served != 1 || st.pktsDone != 1 {
		t.Fatalf("served = %d, pktsDone = %d; want 1/1", served, st.pktsDone)
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

func TestStationCapacityCallback(t *testing.T) {
	eng := sim.NewEngine()
	st := newStation(eng, "t", testProfile(4, 8), 64, testJitter)
	var fracs []float64
	st.onCapacity = func(alive, total int) { fracs = append(fracs, float64(alive)/float64(total)) }
	st.failCore(0)
	st.failCore(1)
	st.recoverCore(0)
	want := []float64{0.75, 0.5, 0.75}
	if len(fracs) != len(want) {
		t.Fatalf("callbacks = %v", fracs)
	}
	for i := range want {
		if fracs[i] != want[i] {
			t.Fatalf("callbacks = %v, want %v", fracs, want)
		}
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
