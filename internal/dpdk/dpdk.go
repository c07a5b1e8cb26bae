// Package dpdk emulates the slice of DPDK the paper's software depends on:
// per-core Rx rings with tail-drop, the rte_eth_rx_burst /
// rte_eth_rx_queue_count polling interface the LBP algorithm consumes, and
// the power-management API that puts polling cores to sleep and wakes them
// on traffic (§V-B).
package dpdk

import (
	"fmt"
	"math"

	"halsim/internal/packet"
	"halsim/internal/rng"
	"halsim/internal/sim"
)

// DefaultRingSize is the descriptor count of one Rx ring (DPDK's common
// default).
const DefaultRingSize = 1024

// RxQueue is one bounded Rx ring. Arriving packets beyond capacity are
// tail-dropped, as a NIC does when descriptors run out. The backing buffer
// is allocated at the first enqueue, minRingAlloc slots (or the ring size,
// if smaller), and doubles on demand up to the capacity, so a ring that
// never carries a packet costs its 48-byte header and nothing else, and a
// lightly loaded one costs memory for the backlog it has actually held,
// not for its descriptor count. Ring faults are the port's (Port.Enqueue).
type RxQueue struct {
	buf   []*packet.Packet
	size  int32 // capacity: the configured descriptor count
	head  int32
	count int32

	// Drops counts ring tail drops.
	Drops uint64
}

// minRingAlloc is the slot count of a ring's first buffer, allocated when
// its first packet arrives.
const minRingAlloc = 16

// MaxRingSize is the largest descriptor count a ring takes: its indices
// are 32-bit.
const MaxRingSize = math.MaxInt32

// NewRxQueue returns an empty ring with the given descriptor count.
func NewRxQueue(size int) *RxQueue {
	q := new(RxQueue)
	q.init(size)
	return q
}

// init sets an empty ring's descriptor count, allocating nothing.
func (q *RxQueue) init(size int) {
	if size <= 0 || size > MaxRingSize {
		panic(fmt.Sprintf("dpdk: ring size %d", size))
	}
	*q = RxQueue{size: int32(size)}
}

// Enqueue places p at the ring tail, returning false (and counting a drop)
// when the ring is full.
func (q *RxQueue) Enqueue(p *packet.Packet) bool {
	n := int32(len(q.buf))
	if q.count == n {
		if q.count == q.size {
			q.Drops++
			return false
		}
		q.grow()
		n = int32(len(q.buf))
	}
	// head < len and count <= len, so one conditional wrap replaces the
	// integer division a modulo would cost per packet.
	tail := q.head + q.count
	if tail >= n {
		tail -= n
	}
	q.buf[tail] = p
	q.count++
	return true
}

// grow doubles the full buffer (capped at the ring size), copying the
// backlog in FIFO order to the front of the new one. An unallocated ring
// gets its first minRingAlloc slots.
func (q *RxQueue) grow() {
	buf := make([]*packet.Packet, min(max(2*len(q.buf), minRingAlloc), int(q.size)))
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
	if q.head++; q.head == int32(len(q.buf)) {
		q.head = 0
	}
	q.count--
	return p
}

// Count returns the current occupancy — rte_eth_rx_queue_count.
func (q *RxQueue) Count() int { return int(q.count) }

// Cap returns the ring size: the configured descriptor count, however
// much of it the buffer has grown to so far.
func (q *RxQueue) Cap() int { return int(q.size) }

// Slots returns how many descriptors the ring's buffer holds so far: 0
// until its first packet arrives, then growing toward Cap with the
// backlog.
func (q *RxQueue) Slots() int { return len(q.buf) }

// Port groups the per-core Rx rings of one interface and spreads arrivals
// across them RSS-style (hash of the flow identity; we use the packet's
// source port ^ ID so one flow stays on one queue while the aggregate
// balances).
type Port struct {
	queues []RxQueue
	// qmask is len(queues)-1 when the queue count is a power of two
	// (masking replaces the per-packet modulo in QueueOf), -1 otherwise.
	qmask int
	// fault is the port's ring fault, nil until SetRxFault first sets one.
	fault *rxFault
}

// rxFault is a port-wide injected Rx fault: each arriving packet's
// descriptor is corrupted with probability prob, and the packet is lost
// and counted in drops. The stream belongs to the fault layer, so fault
// draws never perturb the workload's streams. A cleared fault keeps its
// count.
type rxFault struct {
	prob  float64
	rng   *rng.Rand
	drops uint64
}

// NewPort creates a port with n rings of the given size. The rings are
// one array of headers, filled in place, and the port a value its owner
// embeds, so a packet's RSS lookup and enqueue touch the owner's block and
// that array only. No ring buffer is allocated until a packet arrives.
func NewPort(n, ringSize int) Port {
	if n <= 0 {
		panic("dpdk: port needs at least one queue")
	}
	p := Port{queues: make([]RxQueue, n), qmask: -1}
	if n&(n-1) == 0 {
		p.qmask = n - 1
	}
	for i := range p.queues {
		p.queues[i].init(ringSize)
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

// Enqueue delivers pkt to ring i, returning false when the port's ring
// fault corrupts it (counted in TotalFaultDrops) or the ring tail-drops it
// (counted in the ring's Drops).
func (p *Port) Enqueue(i int, pkt *packet.Packet) bool {
	if f := p.fault; f != nil && f.prob > 0 && f.rng.Float64() < f.prob {
		f.drops++
		return false
	}
	return p.queues[i].Enqueue(pkt)
}

// MaxOccupancy returns the highest per-ring occupancy — what LBP's
// Algorithm 1 computes by calling rte_eth_rx_queue_count per queue and
// taking the max.
func (p *Port) MaxOccupancy() int {
	max := 0
	for i := range p.queues {
		if c := int(p.queues[i].count); c > max {
			max = c
		}
	}
	return max
}

// TotalBacklog sums occupancy over all rings.
func (p *Port) TotalBacklog() int {
	n := 0
	for i := range p.queues {
		n += int(p.queues[i].count)
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

// TotalFaultDrops returns the packets the port's ring faults have lost.
func (p *Port) TotalFaultDrops() uint64 {
	if p.fault == nil {
		return 0
	}
	return p.fault.drops
}

// SetRxFault imposes a ring-corruption fault on every queue of the port:
// arrivals are lost with probability prob, drawn from r. prob <= 0 (or a
// nil r) clears the fault.
func (p *Port) SetRxFault(prob float64, r *rng.Rand) {
	if prob <= 0 || r == nil {
		if p.fault != nil {
			p.fault.prob, p.fault.rng = 0, nil
		}
		return
	}
	if p.fault == nil {
		p.fault = new(rxFault)
	}
	p.fault.prob, p.fault.rng = prob, r
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

	// Wakeups counts sleep→wake transitions.
	Wakeups uint64
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
	return s.WakePenalty
}
