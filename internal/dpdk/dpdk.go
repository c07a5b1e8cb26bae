// Package dpdk emulates the slice of DPDK the paper's software depends on:
// per-core Rx rings with tail-drop, the rte_eth_rx_burst /
// rte_eth_rx_queue_count polling interface the LBP algorithm consumes, and
// the power-management API that puts polling cores to sleep and wakes them
// on traffic (§V-B).
package dpdk

import (
	"fmt"

	"halsim/internal/packet"
	"halsim/internal/rng"
	"halsim/internal/sim"
)

// DefaultRingSize is the descriptor count of one Rx ring (DPDK's common
// default).
const DefaultRingSize = 1024

// RxQueue is one bounded Rx ring. Arriving packets beyond capacity are
// tail-dropped, as a NIC does when descriptors run out. The backing buffer
// starts at minRingAlloc slots and doubles on demand up to the capacity,
// so an idle or lightly loaded ring costs memory for the backlog it has
// actually held, not for its descriptor count.
type RxQueue struct {
	buf   []*packet.Packet
	size  int // capacity: the configured descriptor count
	head  int
	count int

	// impair, when non-nil, is an injected ring fault shared across the
	// port's queues: descriptors are corrupted with probability prob and
	// the packet is lost on arrival.
	impair *rxImpairment

	// Enqueued and Drops count ring-level arrivals and tail drops;
	// FaultDrops counts packets lost to an injected ring fault.
	Enqueued   uint64
	Drops      uint64
	FaultDrops uint64
}

// rxImpairment is a port-wide injected Rx fault: each arriving packet is
// corrupted (and dropped) with probability prob. The stream belongs to the
// fault layer, so fault draws never perturb the workload's streams.
type rxImpairment struct {
	prob float64
	rng  *rng.Rand
}

// minRingAlloc is the slot count a ring's buffer starts with.
const minRingAlloc = 16

// NewRxQueue returns an empty ring with the given descriptor count.
func NewRxQueue(size int) *RxQueue {
	if size <= 0 {
		panic(fmt.Sprintf("dpdk: ring size %d", size))
	}
	return &RxQueue{buf: make([]*packet.Packet, min(size, minRingAlloc)), size: size}
}

// Enqueue places p at the ring tail, returning false (and counting a drop)
// when the ring is full.
func (q *RxQueue) Enqueue(p *packet.Packet) bool {
	if q.impair != nil && q.impair.prob > 0 && q.impair.rng.Float64() < q.impair.prob {
		q.FaultDrops++
		return false
	}
	if q.count == len(q.buf) {
		if q.count == q.size {
			q.Drops++
			return false
		}
		q.grow()
	}
	// head < len and count <= len, so one conditional wrap replaces the
	// integer division a modulo would cost per packet.
	tail := q.head + q.count
	if tail >= len(q.buf) {
		tail -= len(q.buf)
	}
	q.buf[tail] = p
	q.count++
	q.Enqueued++
	return true
}

// grow doubles the full buffer (capped at the ring size), copying the
// backlog in FIFO order to the front of the new one.
func (q *RxQueue) grow() {
	buf := make([]*packet.Packet, min(2*len(q.buf), q.size))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the head packet, or nil when empty.
func (q *RxQueue) Pop() *packet.Packet {
	if q.count == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.count--
	return p
}

// Count returns the current occupancy — rte_eth_rx_queue_count.
func (q *RxQueue) Count() int { return q.count }

// Cap returns the ring size: the configured descriptor count, however
// much of it the buffer has grown to so far.
func (q *RxQueue) Cap() int { return q.size }

// Port groups the per-core Rx rings of one interface and spreads arrivals
// across them RSS-style (hash of the flow identity; we use the packet's
// source port ^ ID so one flow stays on one queue while the aggregate
// balances).
type Port struct {
	queues []RxQueue
	// qmask is len(queues)-1 when the queue count is a power of two
	// (masking replaces the per-packet modulo in QueueOf), -1 otherwise.
	qmask int
}

// NewPort creates a port with n rings of the given size. The rings are
// one array and the port a value its owner embeds, so a packet's RSS
// lookup and enqueue touch the owner's block and that array only.
func NewPort(n, ringSize int) Port {
	if n <= 0 {
		panic("dpdk: port needs at least one queue")
	}
	p := Port{queues: make([]RxQueue, n), qmask: -1}
	if n&(n-1) == 0 {
		p.qmask = n - 1
	}
	for i := range p.queues {
		p.queues[i] = *NewRxQueue(ringSize)
	}
	return p
}

// NumQueues returns the ring count.
func (p *Port) NumQueues() int { return len(p.queues) }

// Queue returns ring i.
func (p *Port) Queue(i int) *RxQueue { return &p.queues[i] }

// QueueOf returns the index of pkt's RSS queue: a hash of the flow
// identity, masked when the queue count is a power of two.
func (p *Port) QueueOf(pkt *packet.Packet) int {
	h := uint64(pkt.SrcPort)<<16 ^ pkt.ID
	if p.qmask >= 0 {
		return int(h & uint64(p.qmask))
	}
	return int(h % uint64(len(p.queues)))
}

// MaxOccupancy returns the highest per-ring occupancy — what LBP's
// Algorithm 1 computes by calling rte_eth_rx_queue_count per queue and
// taking the max.
func (p *Port) MaxOccupancy() int {
	max := 0
	for i := range p.queues {
		if c := p.queues[i].count; c > max {
			max = c
		}
	}
	return max
}

// TotalBacklog sums occupancy over all rings.
func (p *Port) TotalBacklog() int {
	n := 0
	for i := range p.queues {
		n += p.queues[i].count
	}
	return n
}

// TotalDrops sums tail drops over all rings.
func (p *Port) TotalDrops() uint64 {
	var n uint64
	for i := range p.queues {
		n += p.queues[i].Drops
	}
	return n
}

// TotalFaultDrops sums injected ring-fault losses over all rings.
func (p *Port) TotalFaultDrops() uint64 {
	var n uint64
	for i := range p.queues {
		n += p.queues[i].FaultDrops
	}
	return n
}

// SetRxFault imposes a ring-corruption fault on every queue of the port:
// arrivals are lost with probability prob, drawn from r. prob <= 0 (or a
// nil r) clears the fault.
func (p *Port) SetRxFault(prob float64, r *rng.Rand) {
	var imp *rxImpairment
	if prob > 0 && r != nil {
		imp = &rxImpairment{prob: prob, rng: r}
	}
	for i := range p.queues {
		p.queues[i].impair = imp
	}
}

// TotalEnqueued sums ring arrivals.
func (p *Port) TotalEnqueued() uint64 {
	var n uint64
	for i := range p.queues {
		n += p.queues[i].Enqueued
	}
	return n
}

// SleepController models the DPDK power-management API: polling cores are
// put into a sleep state after IdleThreshold without traffic; the first
// arrival afterwards pays WakePenalty before processing resumes (§V-B).
type SleepController struct {
	// IdleThreshold is how long the queues must stay empty before the
	// cores sleep. Zero disables sleeping entirely.
	IdleThreshold sim.Time
	// WakePenalty is the latency added to the packet that triggers a
	// wake-up.
	WakePenalty sim.Time

	asleep    bool
	idleSince sim.Time
	everBusy  bool

	// Wakeups counts sleep→wake transitions; SleepTime integrates time
	// spent asleep for the power model.
	Wakeups   uint64
	SleepTime sim.Time
	sleptAt   sim.Time
}

// Asleep reports whether the cores are currently sleeping.
func (s *SleepController) Asleep() bool { return s.asleep }

// OnIdle tells the controller the queues were observed empty at time now.
func (s *SleepController) OnIdle(now sim.Time) {
	if s.IdleThreshold == 0 || s.asleep {
		return
	}
	if !s.everBusy {
		// Start the idle clock on first observation.
		s.everBusy = true
		s.idleSince = now
	}
	if now-s.idleSince >= s.IdleThreshold {
		s.asleep = true
		s.sleptAt = now
	}
}

// OnTraffic tells the controller a packet arrived at time now. It returns
// the wake-up penalty to charge (zero when already awake).
func (s *SleepController) OnTraffic(now sim.Time) sim.Time {
	s.idleSince = now
	s.everBusy = true
	if !s.asleep {
		return 0
	}
	s.asleep = false
	s.Wakeups++
	s.SleepTime += now - s.sleptAt
	return s.WakePenalty
}

// SleptUntil accounts residual sleep time when a run ends at time end.
func (s *SleepController) SleptUntil(end sim.Time) sim.Time {
	total := s.SleepTime
	if s.asleep && end > s.sleptAt {
		total += end - s.sleptAt
	}
	return total
}
