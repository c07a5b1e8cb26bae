package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEngine is a straight container/heap event loop with the exact semantics
// the pointer-heap engine had before the value-heap rewrite: a min-heap of
// *refEvent ordered by (at, seq). It exists only as the oracle for
// TestReplayAgainstReferenceHeap.
type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refHeap []*refEvent

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	h   refHeap
	now Time
	seq uint64
}

func (r *refEngine) Schedule(delay Time, fn func()) {
	heap.Push(&r.h, &refEvent{at: r.now + delay, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refEngine) Run() {
	for len(r.h) > 0 {
		ev := heap.Pop(&r.h).(*refEvent)
		r.now = ev.at
		ev.fn()
	}
}

// firing records one event execution for trace comparison.
type firing struct {
	id int
	at Time
}

// buildWorkload arms a randomized self-spawning schedule on an engine
// abstracted as (schedule, now): every fired event records itself and spawns
// up to two children at small random delays until the budget is exhausted.
// Delays are drawn from a narrow range so same-timestamp ties — where the
// FIFO seq tie-break is the only thing keeping order deterministic — are
// abundant. The rng is consulted in event-execution order, so two engines
// produce identical traces iff they fire events in the identical order.
func buildWorkload(schedule func(Time, func()), now func() Time, seed int64, budget int) *[]firing {
	rng := rand.New(rand.NewSource(seed))
	trace := make([]firing, 0, budget)
	created := 0
	var spawn func()
	spawn = func() {
		if created >= budget {
			return
		}
		id := created
		created++
		delay := Time(rng.Intn(48))
		schedule(delay, func() {
			trace = append(trace, firing{id, now()})
			spawn()
			spawn()
		})
	}
	for i := 0; i < 16; i++ {
		spawn()
	}
	return &trace
}

// TestReplayAgainstReferenceHeap replays a randomized 100k-event schedule
// (heavy on same-timestamp ties, children scheduled from inside handlers)
// on the engine and on a container/heap reference, and demands
// the firing traces match event for event.
func TestReplayAgainstReferenceHeap(t *testing.T) {
	const budget = 100_000
	for _, seed := range []int64{1, 7, 42} {
		ref := &refEngine{}
		want := buildWorkload(ref.Schedule, func() Time { return ref.now }, seed, budget)
		ref.Run()

		e := NewEngine()
		got := buildWorkload(e.schedule, e.Now, seed, budget)
		e.Run()

		if len(*got) != budget || len(*want) != budget {
			t.Fatalf("seed %d: trace lengths %d/%d, want %d", seed, len(*got), len(*want), budget)
		}
		for i := range *want {
			if (*got)[i] != (*want)[i] {
				t.Fatalf("seed %d: traces diverge at event %d: engine fired %+v, reference fired %+v",
					seed, i, (*got)[i], (*want)[i])
			}
		}
	}
}

// TestTickerCancelMidTick cancels the tickers from inside a tick's own
// callback: the in-flight tick completes and nothing re-arms.
func TestTickerCancelMidTick(t *testing.T) {
	e := NewEngine()
	var ticks int
	var tk Ticker
	e.Every(&tk, 10, callFunc, func() {
		ticks++
		if ticks == 2 {
			e.CancelTickers()
		}
	})
	e.Run()
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2 (cancelled mid-tick)", ticks)
	}
	if e.q.pending() != 0 {
		t.Fatalf("pending = %d, want 0 (cancelled ticker must not re-arm)", e.q.pending())
	}
}

// TestFreeListReuseAfterRun verifies the wheel slab's free list recycles
// event cells: once a first Run has grown the slab to its high water,
// further schedule/run cycles of the same fan-out allocate nothing.
func TestFreeListReuseAfterRun(t *testing.T) {
	e := NewEngine()
	noop := Call(func(any, int64) {})
	cycle := func() {
		for i := 0; i < 256; i++ {
			e.ScheduleCall(Time(i%17), noop, nil, int64(i))
		}
		e.Run()
	}
	cycle() // grow the slab to its high water
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("schedule+run cycle allocates %v per run after warm-up, want 0", avg)
	}
	if e.q.pending() != 0 {
		t.Fatalf("pending = %d after drain", e.q.pending())
	}
}

// BenchmarkEngineScheduleCall measures the closure-free hot path.
func BenchmarkEngineScheduleCall(b *testing.B) {
	e := NewEngine()
	noop := Call(func(any, int64) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleCall(Time(i%1000), noop, nil, int64(i))
		if e.q.pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}
