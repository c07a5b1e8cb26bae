package dpdk

import (
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"halsim/internal/packet"
)

func pkt(id uint64) *packet.Packet {
	p := packet.New(packet.Addr{}, packet.Addr{}, uint16(id), 9, nil)
	p.ID = id
	return p
}

// deliver enqueues pkt on its RSS queue, as a station does.
func deliver(p *Port, pkt *packet.Packet) bool { return p.Enqueue(p.QueueOf(pkt), pkt) }

// burstSize is rte_eth_rx_burst's usual batch size.
const burstSize = 32

// burst pops up to max packets off q, appending them to dst: an
// rte_eth_rx_burst poll.
func burst(q *RxQueue, dst []*packet.Packet, max int) []*packet.Packet {
	for ; max > 0; max-- {
		p := q.Pop()
		if p == nil {
			break
		}
		dst = append(dst, p)
	}
	return dst
}

func TestRxQueueFIFO(t *testing.T) {
	q := NewRxQueue(8)
	for i := uint64(0); i < 5; i++ {
		if !q.Enqueue(pkt(i)) {
			t.Fatal("enqueue failed")
		}
	}
	if q.Count() != 5 {
		t.Fatalf("count = %d", q.Count())
	}
	got := burst(q, nil, 3)
	if len(got) != 3 || got[0].ID != 0 || got[2].ID != 2 {
		t.Fatalf("burst = %v", got)
	}
	if q.Count() != 2 {
		t.Fatalf("count after burst = %d", q.Count())
	}
	if p := q.Pop(); p == nil || p.ID != 3 {
		t.Fatalf("pop = %v", p)
	}
}

func TestRxQueueTailDrop(t *testing.T) {
	q := NewRxQueue(2)
	if !q.Enqueue(pkt(1)) || !q.Enqueue(pkt(2)) {
		t.Fatal("a ring with room must accept")
	}
	if q.Enqueue(pkt(3)) {
		t.Fatal("full ring must drop")
	}
	if q.Drops != 1 || q.Count() != 2 {
		t.Fatalf("drops/count = %d/%d", q.Drops, q.Count())
	}
}

func TestRxQueueWrapAround(t *testing.T) {
	q := NewRxQueue(4)
	id := uint64(0)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Enqueue(pkt(id)) {
				t.Fatal("unexpected drop")
			}
			id++
		}
		got := burst(q, nil, 3)
		if len(got) != 3 {
			t.Fatalf("burst = %d", len(got))
		}
		for i, p := range got {
			want := id - 3 + uint64(i)
			if p.ID != want {
				t.Fatalf("round %d: got %d want %d", round, p.ID, want)
			}
		}
	}
}

// refRing is a fixed-size FIFO with tail-drop: the reference a growing
// ring must be indistinguishable from.
type refRing struct {
	ids   []uint64
	size  int
	drops uint64
}

func (r *refRing) enqueue(id uint64) bool {
	if len(r.ids) == r.size {
		r.drops++
		return false
	}
	r.ids = append(r.ids, id)
	return true
}

func (r *refRing) take(n int) []uint64 {
	n = min(n, len(r.ids))
	out := append([]uint64(nil), r.ids[:n]...)
	r.ids = r.ids[n:]
	return out
}

// TestRxQueueGrowthMatchesFixedRing drives growing rings through random
// enqueue/pop/burst sequences — backlogs that wrap around while the buffer
// doubles — and checks every observable against a fixed-size ring: accept
// or drop per packet, FIFO order, tail drops at the configured size,
// occupancy and Cap. Every ring starts unallocated, half of them built
// alone and half in place as a port's rings: no buffer exists before the
// first enqueue, which allocates min(minRingAlloc, size) slots. The buffer
// never outgrows the ring size, nor twice the highest backlog once past
// that first allocation.
func TestRxQueueGrowthMatchesFixedRing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 2, 3, 15, 16, 17, 33, 100, DefaultRingSize} {
		for trial := 0; trial < 20; trial++ {
			q := NewRxQueue(size)
			if trial%2 == 1 {
				port := NewPort(1, size)
				q = port.Queue(0)
			}
			if q.buf != nil {
				t.Fatalf("size %d: a new ring holds a %d-slot buffer", size, len(q.buf))
			}
			ref := &refRing{size: size}
			var next uint64
			var dst []*packet.Packet
			high := 0
			// Bias toward enqueues on some trials so rings fill and drop.
			enqBias := 0.5 + 0.45*rng.Float64()
			for op := 0; op < 4*size+200; op++ {
				var got []*packet.Packet
				var want []uint64
				switch x := rng.Float64(); {
				case x < enqBias:
					id := next
					next++
					if ok, wantOK := q.Enqueue(pkt(id)), ref.enqueue(id); ok != wantOK {
						t.Fatalf("size %d op %d: enqueue %d = %v, want %v", size, op, id, ok, wantOK)
					}
					if id == 0 && len(q.buf) != min(minRingAlloc, size) {
						t.Fatalf("size %d: first enqueue allocated %d slots, want %d",
							size, len(q.buf), min(minRingAlloc, size))
					}
				case x < enqBias+(1-enqBias)/2:
					if p := q.Pop(); p != nil {
						got = []*packet.Packet{p}
					}
					want = ref.take(1)
				default:
					n := 1 + rng.Intn(2*burstSize)
					dst = burst(q, dst[:0], n)
					got = dst
					want = ref.take(n)
				}
				if next == 0 && q.buf != nil {
					t.Fatalf("size %d op %d: pops allocated a %d-slot buffer before any enqueue",
						size, op, len(q.buf))
				}
				if len(got) != len(want) {
					t.Fatalf("size %d op %d: took %d packets, want %d", size, op, len(got), len(want))
				}
				for i, p := range got {
					if p.ID != want[i] {
						t.Fatalf("size %d op %d: packet %d is %d, want %d", size, op, i, p.ID, want[i])
					}
				}
				if q.Count() != len(ref.ids) || q.Drops != ref.drops || q.Cap() != size {
					t.Fatalf("size %d op %d: count/drops/cap = %d/%d/%d, want %d/%d/%d",
						size, op, q.Count(), q.Drops, q.Cap(), len(ref.ids), ref.drops, size)
				}
				high = max(high, q.Count())
				if len(q.buf) > size || len(q.buf) > max(minRingAlloc, 2*high) {
					t.Fatalf("size %d op %d: buffer %d slots for backlog high-water %d",
						size, op, len(q.buf), high)
				}
			}
		}
	}
}

// TestRxQueueHeaderFitsCacheLine pins the ring header's size: a port's
// rings are one array of headers, and each stays within one cache line.
func TestRxQueueHeaderFitsCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(RxQueue{}); s > 64 {
		t.Fatalf("RxQueue header is %d B, want <= 64", s)
	}
}

func TestBurstEmptyAndPopEmpty(t *testing.T) {
	q := NewRxQueue(4)
	if len(burst(q, nil, 8)) != 0 {
		t.Fatal("empty burst should be nil")
	}
	if q.Pop() != nil {
		t.Fatal("empty pop should be nil")
	}
}

func TestNewRxQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRxQueue(0)
}

func TestNewRxQueuePanicsPastMaxRingSize(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("an int cannot exceed MaxRingSize")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRxQueue(MaxRingSize + 1)
}

func TestPortRSSSpreadsAndPins(t *testing.T) {
	p := NewPort(4, 64)
	// Same flow (src port) with same ID bits goes to the same ring.
	a := pkt(100)
	b := pkt(100)
	a.SrcPort, b.SrcPort = 7, 7
	deliver(&p, a)
	deliver(&p, b)
	together := false
	for i := 0; i < 4; i++ {
		if p.Queue(i).Count() == 2 {
			together = true
		}
	}
	if !together {
		t.Fatal("identical flow should pin to one ring")
	}
	// Many flows spread across all rings.
	p2 := NewPort(4, 1024)
	for i := uint64(0); i < 1000; i++ {
		q := pkt(i)
		q.SrcPort = uint16(i * 31)
		deliver(&p2, q)
	}
	for i := 0; i < 4; i++ {
		if p2.Queue(i).Count() == 0 {
			t.Fatalf("ring %d starved by RSS", i)
		}
	}
	if p2.TotalBacklog() != 1000 {
		t.Fatalf("backlog = %d", p2.TotalBacklog())
	}
	if p2.TotalDrops() != 0 {
		t.Fatal("counters wrong")
	}
}

func TestMaxOccupancy(t *testing.T) {
	p := NewPort(2, 16)
	for i := 0; i < 5; i++ {
		p.Queue(0).Enqueue(pkt(uint64(i)))
	}
	p.Queue(1).Enqueue(pkt(99))
	if p.MaxOccupancy() != 5 {
		t.Fatalf("max occupancy = %d", p.MaxOccupancy())
	}
	if p.NumQueues() != 2 {
		t.Fatal("queue count")
	}
}

func TestNewPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPort(0, 16)
}

func TestSleepControllerLifecycle(t *testing.T) {
	s := &SleepController{IdleThreshold: 100, WakePenalty: 30}
	// Not yet asleep: idle clock starts at first OnIdle.
	s.OnIdle(0)
	if s.Asleep() {
		t.Fatal("should not sleep instantly")
	}
	s.OnIdle(50)
	if s.Asleep() {
		t.Fatal("idle threshold not reached")
	}
	s.OnIdle(150)
	if !s.Asleep() {
		t.Fatal("should sleep after threshold")
	}
	// Wake on traffic: penalty charged once.
	if pen := s.OnTraffic(200); pen != 30 {
		t.Fatalf("wake penalty = %d", pen)
	}
	if s.Asleep() || s.Wakeups != 1 {
		t.Fatal("should be awake with one wakeup")
	}
	// Awake traffic: no penalty.
	if pen := s.OnTraffic(210); pen != 0 {
		t.Fatalf("awake penalty = %d", pen)
	}
}

func TestSleepControllerDisabled(t *testing.T) {
	s := &SleepController{} // IdleThreshold 0 → never sleeps
	s.OnIdle(0)
	s.OnIdle(1 << 40)
	if s.Asleep() {
		t.Fatal("disabled controller must never sleep")
	}
}

func TestSleepControllerIdleClockResetsOnTraffic(t *testing.T) {
	s := &SleepController{IdleThreshold: 100, WakePenalty: 10}
	s.OnIdle(0)
	s.OnTraffic(90) // resets idle clock
	s.OnIdle(150)   // only 60 idle
	if s.Asleep() {
		t.Fatal("traffic should reset the idle clock")
	}
	s.OnIdle(195)
	if !s.Asleep() {
		t.Fatal("should sleep 100 after last traffic")
	}
}

func BenchmarkEnqueueBurst(b *testing.B) {
	q := NewRxQueue(DefaultRingSize)
	p := pkt(1)
	var dst []*packet.Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(p)
		if q.Count() >= burstSize {
			dst = burst(q, dst[:0], burstSize)
		}
	}
}
