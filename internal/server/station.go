package server

import (
	"halsim/internal/dpdk"
	"halsim/internal/packet"
	"halsim/internal/platform"
	"halsim/internal/rng"
	"halsim/internal/sim"
	"halsim/internal/telemetry"
)

// station models one processor complex (SNIC CPU, SNIC accelerator, host
// CPU, host accelerator, or the SLB forwarding cores): k servers, each
// polling its own DPDK Rx ring, with per-packet service times drawn from a
// platform profile. Its port and per-core state are held by value (the
// port's rings are one array, the cores another), and a run embeds its
// first-stage stations, so an arriving packet walks the run's block.
type station struct {
	// The fields a packet touches come first, so its enqueue, service and
	// completion read three or four cache lines of the station, not six.
	eng  *sim.Engine
	port dpdk.Port
	// cores holds one slot per server, indexed like the port's rings.
	cores []coreState
	// rng draws service jitter from the station's own keyed stream.
	rng rng.Rand

	// timer/altTimer are the precomputed service-time samplers for
	// prof/altProf; refreshed whenever the profile changes.
	timer platform.ServiceTimer
	// altProf, when non-nil, serves packets tagged FnTag==1 — the
	// function-mix scenario that motivates the dynamic LBP (§V-B).
	altProf *platform.FnProfile

	// sleep, when non-nil, applies the DPDK power-management model: the
	// whole station sleeps when idle and the waking packet pays the
	// penalty (§V-B).
	sleep *dpdk.SleepController

	// extra, when non-nil, returns additional service time for a packet
	// (coherent state access, pipelined second function, ...). It runs
	// at service start.
	extra func(*packet.Packet) sim.Time

	// onServed fires at service completion with the served packet.
	onServed func(*packet.Packet)

	// serveCall and completeCall are the pre-bound event handlers of the
	// hot path (closure-free scheduling; see sim.ScheduleCall).
	serveCall    sim.Call
	completeCall sim.Call

	// tr, when non-nil, records sampled lifecycle spans (and every drop)
	// under the telID lane. A nil tr costs one pointer compare per hook.
	tr *telemetry.Tracer

	// Accounting.
	busyTime  sim.Time
	pktsDone  uint64
	bytesDone uint64
	// window accumulators for power sampling: bytes served since the
	// last power sample.
	windowBytes int64

	name     string
	prof     platform.FnProfile
	altTimer platform.ServiceTimer
	telID    telemetry.StationID

	// onCapacity, when non-nil, fires after a crash or recovery with the
	// alive and total core counts (the LBP watchdog's capacity signal).
	onCapacity func(alive, total int)

	// release, when non-nil, returns a packet the station conclusively
	// dropped (ring tail-drop, fault drop, failed rehome) to the run's
	// packet pool. Ownership rule: a packet handed to enqueue is owned by
	// the station until it is either delivered via onServed or released
	// here — callers must not touch it after a false return.
	release func(*packet.Packet)

	// Fault accounting: crashes counts core deaths, requeued counts
	// packets re-homed off a crashed core (in-flight victim plus drained
	// ring backlog), faultDrops counts packets lost because no core was
	// alive to take them.
	crashes    uint64
	requeued   uint64
	faultDrops uint64
}

// coreState is one core's slot. busy marks a core mid-service. The rest is
// fault state: dead marks a crashed core, gen is its incarnation counter,
// which invalidates the pending completion of a crashed core, and
// inflight/inflightDone track the packet being served (and when it would
// have finished) so a crash can requeue it and unwind busyTime.
type coreState struct {
	busy, dead   bool
	gen          uint64
	inflight     *packet.Packet
	inflightDone sim.Time
}

// maxCores bounds a station's server count so a core index packs into the
// low byte of a completion event's scalar argument (gen<<coreBits | core).
const (
	coreBits = 8
	maxCores = 1 << coreBits
)

func newStation(eng *sim.Engine, name string, prof platform.FnProfile, ringSize int, jitter rng.Rand) *station {
	s := new(station)
	s.init(eng, name, prof, ringSize, jitter)
	return s
}

// init builds the station in place, drawing service jitter from the
// stream jitter. Its event handlers are bound to s, so an initialized
// station must not be copied.
func (s *station) init(eng *sim.Engine, name string, prof platform.FnProfile, ringSize int, jitter rng.Rand) {
	if prof.Servers > maxCores {
		panic("server: station core count exceeds completion-event packing range")
	}
	*s = station{
		eng:   eng,
		name:  name,
		prof:  prof,
		timer: prof.Timer(),
		port:  dpdk.NewPort(prof.Servers, ringSize),
		rng:   jitter,
		cores: make([]coreState, prof.Servers),
	}
	// Bind the event handlers once: scheduling a poll or a completion then
	// carries (handler, packet, packed scalar) by value instead of
	// capturing a fresh closure per packet.
	s.serveCall = func(_ any, core int64) { s.serve(int(core)) }
	s.completeCall = s.completeServe
}

// enqueue delivers p to the station's RSS queue, returning false on a tail
// drop. If the owning core is idle it starts serving, paying the wake-up
// penalty first when the station was asleep. Crashed cores are steered
// around (the driver re-programs the RSS indirection table on core
// failure); a station with no core alive drops the packet.
func (s *station) enqueue(p *packet.Packet) bool {
	var penalty sim.Time
	if s.sleep != nil {
		penalty = s.sleep.OnTraffic(s.eng.Now())
	}
	core := s.port.QueueOf(p)
	if s.cores[core].dead {
		alive := s.nextAlive(core)
		if alive < 0 {
			s.faultDrops++
			if s.tr != nil {
				s.tr.Emit(telemetry.Span{T: s.eng.Now(), Kind: telemetry.KindDrop,
					Station: s.telID, Core: -1, Pkt: p.ID, Arg: int64(telemetry.DropNoCore)})
			}
			s.releasePkt(p)
			return false
		}
		core = alive
	}
	return s.enqueueCore(p, core, penalty)
}

// enqueueCore places p on core's ring, starting the core if it was idle.
// A false return means the packet was dropped (ring full or ring fault)
// and, when pooling is on, already released — the caller no longer owns it.
func (s *station) enqueueCore(p *packet.Packet, core int, penalty sim.Time) bool {
	q := s.port.Queue(core)
	var preDrops uint64
	if s.tr != nil {
		preDrops = q.Drops
	}
	if !q.Enqueue(p) {
		if s.tr != nil {
			// The ring rejected it for one of two reasons; the tail-drop
			// counter tells them apart.
			reason := telemetry.DropRxFault
			if q.Drops > preDrops {
				reason = telemetry.DropRingFull
			}
			s.tr.Emit(telemetry.Span{T: s.eng.Now(), Kind: telemetry.KindDrop,
				Station: s.telID, Core: int16(core), Pkt: p.ID, Arg: int64(reason)})
		}
		s.releasePkt(p)
		return false
	}
	if s.tr != nil && s.tr.Sampled(p.ID) {
		s.tr.Emit(telemetry.Span{T: s.eng.Now(), Kind: telemetry.KindEnqueue,
			Station: s.telID, Core: int16(core), Pkt: p.ID, Arg: int64(q.Count())})
	}
	if c := &s.cores[core]; !c.busy && !c.dead {
		c.busy = true
		s.eng.ScheduleCall(penalty, s.serveCall, nil, int64(core))
	}
	return true
}

// releasePkt returns a dropped packet to the run's pool, if pooling is on.
func (s *station) releasePkt(p *packet.Packet) {
	if s.release != nil {
		s.release(p)
	}
}

// nextAlive returns the first alive core at or after from (wrapping), or
// -1 when every core is dead. Deterministic, so remapping is reproducible.
func (s *station) nextAlive(from int) int {
	n := len(s.cores)
	for i := 0; i < n; i++ {
		c := (from + i) % n
		if !s.cores[c].dead {
			return c
		}
	}
	return -1
}

// serve runs one core's poll loop: take the ring head, hold the core for
// the service time, deliver, repeat until the ring drains. A crash between
// service start and completion bumps the core's generation, which voids
// the pending completion (the packet was re-homed or dropped at crash
// time).
func (s *station) serve(core int) {
	c := &s.cores[core]
	if c.dead {
		c.busy = false
		return
	}
	p := s.port.Queue(core).Pop()
	if p == nil {
		c.busy = false
		if s.sleep != nil && s.port.TotalBacklog() == 0 && !s.anyBusy() {
			s.sleep.OnIdle(s.eng.Now())
		}
		return
	}
	tm := s.timer
	if p.FnTag == 1 && s.altProf != nil {
		tm = s.altTimer
	}
	st := tm.Sample(p.WireLen, &s.rng)
	if s.extra != nil {
		st += s.extra(p)
	}
	s.busyTime += st
	c.inflight = p
	c.inflightDone = s.eng.Now() + st
	if s.tr != nil && s.tr.Sampled(p.ID) {
		s.tr.Emit(telemetry.Span{T: s.eng.Now(), Dur: st, Kind: telemetry.KindServe,
			Station: s.telID, Core: int16(core), Pkt: p.ID, Arg: int64(p.WireLen)})
	}
	// Completion carries (packet, gen<<coreBits|core) by value — no
	// captured closure, no per-packet allocation.
	s.eng.ScheduleCall(st, s.completeCall, p, int64(c.gen)<<coreBits|int64(core))
}

// completeServe fires when core finishes serving p. The packed scalar
// holds the core index and the generation the service started under; a
// crash between service start and completion bumps the generation, which
// voids the stale completion (the packet was re-homed or dropped at crash
// time).
func (s *station) completeServe(arg any, n int64) {
	core := int(n & (maxCores - 1))
	c := &s.cores[core]
	if c.gen != uint64(n)>>coreBits {
		return // core crashed mid-service; packet already re-homed
	}
	p := arg.(*packet.Packet)
	c.inflight = nil
	s.pktsDone++
	s.bytesDone += uint64(p.WireLen)
	s.windowBytes += int64(p.WireLen)
	if s.tr != nil && s.tr.Sampled(p.ID) {
		s.tr.Emit(telemetry.Span{T: s.eng.Now(), Kind: telemetry.KindComplete,
			Station: s.telID, Core: int16(core), Pkt: p.ID})
	}
	if s.onServed != nil {
		s.onServed(p)
	}
	s.serve(core)
}

// failCore kills one core: its in-flight packet and ring backlog are
// re-homed onto the surviving cores (tail-dropping if their rings are
// full), new arrivals are steered away, and the capacity callback fires.
// Failing a dead core is a no-op.
func (s *station) failCore(core int) {
	if core < 0 || core >= len(s.cores) || s.cores[core].dead {
		return
	}
	c := &s.cores[core]
	c.dead = true
	c.gen++ // void the pending completion, if any
	s.crashes++
	c.busy = false
	if p := c.inflight; p != nil {
		// Unwind the service time the crash cut short.
		if rem := c.inflightDone - s.eng.Now(); rem > 0 {
			s.busyTime -= rem
		}
		c.inflight = nil
		s.rehome(p)
	}
	q := s.port.Queue(core)
	for p := q.Pop(); p != nil; p = q.Pop() {
		s.rehome(p)
	}
	if s.onCapacity != nil {
		s.onCapacity(s.aliveCores(), len(s.cores))
	}
}

// recoverCore brings a dead core back. Its ring is empty (drained at crash
// time, arrivals steered away since), so it simply rejoins the RSS spread.
func (s *station) recoverCore(core int) {
	if core < 0 || core >= len(s.cores) || !s.cores[core].dead {
		return
	}
	c := &s.cores[core]
	c.dead = false
	if s.port.Queue(core).Count() > 0 && !c.busy {
		c.busy = true
		s.eng.ScheduleCall(0, s.serveCall, nil, int64(core))
	}
	if s.onCapacity != nil {
		s.onCapacity(s.aliveCores(), len(s.cores))
	}
}

// rehome moves a crashed core's packet to a surviving core, or drops it
// when none is left.
func (s *station) rehome(p *packet.Packet) {
	alive := s.nextAlive(s.port.QueueOf(p))
	if alive < 0 {
		s.faultDrops++
		if s.tr != nil {
			s.tr.Emit(telemetry.Span{T: s.eng.Now(), Kind: telemetry.KindDrop,
				Station: s.telID, Core: -1, Pkt: p.ID, Arg: int64(telemetry.DropNoCore)})
		}
		s.releasePkt(p)
		return
	}
	s.requeued++
	s.enqueueCore(p, alive, 0)
}

// aliveCores returns how many cores are not crashed.
func (s *station) aliveCores() int {
	n := 0
	for i := range s.cores {
		if !s.cores[i].dead {
			n++
		}
	}
	return n
}

// setProfile swaps the station's service profile in place (accelerator
// degradation/restoration at run time). The core count is pinned at build
// time, so the replacement profile serves with the original parallelism
// at its own per-core rate: an SLB station, whose forwarding cores leave
// fewer processing cores than the profile's, keeps its share of MaxGbps.
func (s *station) setProfile(p platform.FnProfile) {
	p.MaxGbps *= float64(s.prof.Servers) / float64(p.Servers)
	p.Servers = s.prof.Servers
	s.prof = p
	s.timer = p.Timer()
}

// setAltProfile installs (or clears) the FnTag==1 profile and its timer.
func (s *station) setAltProfile(p *platform.FnProfile) {
	s.altProf = p
	if p != nil {
		s.altTimer = p.Timer()
	}
}

// inflightCount returns how many packets are mid-service right now.
func (s *station) inflightCount() int {
	n := 0
	for i := range s.cores {
		if s.cores[i].inflight != nil {
			n++
		}
	}
	return n
}

func (s *station) anyBusy() bool {
	for i := range s.cores {
		if s.cores[i].busy {
			return true
		}
	}
	return false
}

// busyCores returns how many servers are mid-service.
func (s *station) busyCores() int {
	n := 0
	for i := range s.cores {
		if s.cores[i].busy {
			n++
		}
	}
	return n
}

// takeWindowBytes returns and resets the bytes served since the last call
// (power sampling).
func (s *station) takeWindowBytes() int64 {
	b := s.windowBytes
	s.windowBytes = 0
	return b
}

// utilization is the long-run fraction of core-time spent serving.
func (s *station) utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 || s.prof.Servers == 0 {
		return 0
	}
	return float64(s.busyTime) / (float64(elapsed) * float64(s.prof.Servers))
}
