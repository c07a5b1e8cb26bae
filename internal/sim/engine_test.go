package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.schedule(30, func() { got = append(got, 3) })
	e.schedule(10, func() { got = append(got, 1) })
	e.schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.schedule(50, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: got[%d]=%d", i, got[i])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits int
	e.schedule(10, func() {
		hits++
		e.schedule(5, func() {
			hits++
			if e.Now() != 15 {
				t.Errorf("nested Now = %d, want 15", e.Now())
			}
		})
	})
	e.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.schedule(100, func() { fired = append(fired, e.Now()) })
	e.schedule(300, func() { fired = append(fired, e.Now()) })
	e.RunUntil(200)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired = %v, want [100]", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("Now = %d, want clamped to 200", e.Now())
	}
	e.RunUntil(400)
	if len(fired) != 2 || fired[1] != 300 {
		t.Fatalf("fired = %v, want [100 300]", fired)
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(5000)
	if e.Now() != 5000 {
		t.Fatalf("Now = %d, want 5000", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEngine().schedule(-1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	e := NewEngine()
	e.schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.at(50, func() {})
	})
	e.Run()
}

func TestEvery(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tk Ticker
	e.Every(&tk, 10, callFunc, func() {
		ticks = append(ticks, e.Now())
	})
	e.schedule(35, e.CancelTickers)
	e.RunUntil(100)
	want := []Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero period")
		}
	}()
	var tk Ticker
	NewEngine().Every(&tk, 0, callFunc, func() {})
}

// tickCount is a ticker owner: its tick handler is a package-level Call.
type tickCount struct{ n int }

func countTick(arg any, _ int64) { arg.(*tickCount).n++ }

// TestEveryAllocatesNothing arms and runs periodic processes whose records
// their owner holds: once the wheel's slab has grown, neither arming nor
// ticking allocates.
func TestEveryAllocatesNothing(t *testing.T) {
	e := NewEngine()
	noop := Call(func(any, int64) {})
	for i := 0; i < 256; i++ {
		e.ScheduleCall(Time(i), noop, nil, 0)
	}
	e.Run() // grow the slab past the tickers' pending events
	var owner tickCount
	tks := make([]Ticker, 3*11)
	k := 0
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 3; i++ {
			e.Every(&tks[k], Time(3+i), countTick, &owner)
			k++
		}
		e.RunUntil(e.Now() + 100)
	})
	if allocs != 0 {
		t.Fatalf("arming three tickers and running them allocates %v per run, want 0", allocs)
	}
	if owner.n == 0 {
		t.Fatal("no tick ran")
	}
}

// TestTickerArmedAfterCancelNeverRuns: CancelTickers stops the engine's
// periodic processes for good, including one armed afterwards.
func TestTickerArmedAfterCancelNeverRuns(t *testing.T) {
	e := NewEngine()
	e.CancelTickers()
	var owner tickCount
	var tk Ticker
	e.Every(&tk, 10, countTick, &owner)
	e.Run()
	if owner.n != 0 {
		t.Fatalf("ticks = %d after CancelTickers, want 0", owner.n)
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 42; i++ {
		e.schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 42 {
		t.Fatalf("Processed = %d, want 42", e.Processed())
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(3*time.Microsecond) != 3*Microsecond {
		t.Fatal("Duration conversion wrong")
	}
	if got := (2500 * Microsecond).Seconds(); got != 0.0025 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Fatalf("Micros = %v", got)
	}
}

// BenchmarkEngineSteadyState times the engine's cost per event in steady
// state: a fixed population of self-rescheduling handlers, about
// hal-nat-80g's slab high water (80 events), each re-arming itself at a
// level-0 delay drawn from a fixed PCG. It reports ns/event and must
// allocate nothing once the slab is warm.
func BenchmarkEngineSteadyState(b *testing.B) {
	const population = 80
	rng := rand.New(rand.NewPCG(1, 2))
	var delays [4096]Time
	for i := range delays {
		delays[i] = 1 + Time(rng.IntN(l0Slots-1))
	}
	e := NewEngine()
	var k, budget int
	var rearm Call
	rearm = func(arg any, n int64) {
		if budget == 0 {
			return
		}
		budget--
		k = (k + 1) & (len(delays) - 1)
		e.ScheduleCall(delays[k], rearm, arg, n)
	}
	arm := func(events int) {
		budget = events
		for i := 0; i < population; i++ {
			e.ScheduleCall(delays[i], rearm, nil, int64(i))
		}
	}
	arm(100 * population) // warm the slab and the cascade scratch
	e.Run()
	arm(b.N)
	start := e.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Processed()-start), "ns/event")
}

func TestQuickPropertyOrdering(t *testing.T) {
	// Property: for any set of (delay, id) pairs scheduled up front, the
	// engine fires them sorted by delay, FIFO within equal delays.
	f := func(delays []uint16) bool {
		e := NewEngine()
		type tag struct {
			at  Time
			seq int
		}
		var fired []tag
		for i, d := range delays {
			d, i := Time(d), i
			e.schedule(d, func() { fired = append(fired, tag{d, i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReserveKeepsOrderAndCapacity: a reserved engine fires the same
// random schedule in the same order as an unreserved one, and files up to
// the reserved count without reallocating its queue.
func TestReserveKeepsOrderAndCapacity(t *testing.T) {
	const events = 500
	order := func(reserve int) ([]int, int) {
		e := NewEngine()
		e.Reserve(reserve)
		r := rand.New(rand.NewPCG(7, 7))
		var got []int
		for i := 0; i < events; i++ {
			e.schedule(Time(r.IntN(40)), func() { got = append(got, i) })
		}
		grown := cap(e.q.slab)
		e.Run()
		return got, grown
	}
	want, _ := order(0)
	got, capacity := order(events)
	if capacity != events {
		t.Errorf("slab capacity %d after filing %d reserved events, want %d", capacity, events, events)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reserved engine fired event %d at position %d, unreserved fired %d", got[i], i, want[i])
		}
	}
}
