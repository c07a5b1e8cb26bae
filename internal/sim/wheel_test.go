package sim

import (
	"math/rand"
	"testing"
)

// heapEngine is a minimal event loop built directly on the retained 4-ary
// eventHeap — the engine's entire queue before the timing wheel. It is the
// oracle the wheel is replayed against: identical (at, seq) semantics with
// none of the wheel's level/cascade/overflow machinery. Local schedules
// draw the same composite seq keys a serial Engine draws, so injected
// foreign keys interleave with them exactly as they do in the wheel.
type heapEngine struct {
	h    eventHeap
	now  Time
	keys Engine // seq-key generator only; its queue stays empty
}

func (r *heapEngine) Schedule(delay Time, fn func()) {
	r.keys.now = r.now
	r.h.push(event{at: r.now + delay, seq: r.keys.nextSeq(), call: callFunc, arg: fn})
}

func (r *heapEngine) Inject(at Time, seq uint64, fn func()) {
	r.h.push(event{at: at, seq: seq, call: callFunc, arg: fn})
}

func (r *heapEngine) RunUntil(deadline Time) {
	for r.h.len() > 0 {
		if r.h.peek().at > deadline {
			r.now = deadline
			return
		}
		ev := r.h.pop()
		r.now = ev.at
		ev.call(ev.arg, ev.n)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *heapEngine) Run() {
	for r.h.len() > 0 {
		ev := r.h.pop()
		r.now = ev.at
		ev.call(ev.arg, ev.n)
	}
}

// lastSeq returns the seq key the engine's most recent local schedule drew.
func lastSeq(e *Engine) uint64 {
	return uint64(e.seqAt)<<seqTimeShift | e.rank<<seqCtrBits | (e.seqCtr - 1)
}

// wheelDelay draws delays stratified across every wheel regime: same-tick
// ties, single-slot level-0 hops, each cascading level, the lap-collision
// promotion band just under a window boundary, and far-future deltas beyond
// the horizon that must detour through the overflow heap.
func wheelDelay(rng *rand.Rand) Time {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1, 2, 3:
		return Time(rng.Intn(l0Slots))
	case 4, 5:
		return Time(rng.Intn(1 << levelShift(2)))
	case 6:
		return Time(rng.Intn(1 << levelShift(3)))
	case 7:
		return Time(rng.Int63n(1 << levelShift(upperLevels)))
	case 8:
		// Hug a coverage boundary: these are the deltas that wrap onto
		// the cursor's own slot and exercise the promotion rule.
		lvl := 1 + rng.Intn(upperLevels)
		span := Time(1) << levelShift(lvl)
		window := span << slotBits
		return window - Time(rng.Int63n(int64(2*span)))
	case 9:
		return wheelHorizon - Time(rng.Int63n(1<<levelShift(3)))
	default:
		return wheelHorizon + Time(rng.Int63n(int64(wheelHorizon)))
	}
}

// buildWheelWorkload mirrors buildWorkload but with wheelDelay's
// multi-magnitude draws; the rng is consulted in event-execution order, so
// two engines produce identical traces iff they fire events in the
// identical order. With a non-nil inject, a quarter of the events are
// foreign instead: keyed as if a rank-1 sender whose clock runs up to one
// level-0 window behind or ahead had scheduled them, the way cross-LP
// messages reach a sharded run's wheels.
func buildWheelWorkload(schedule func(Time, func()), inject func(Time, uint64, func()), now func() Time, seed int64, budget int) *[]firing {
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
		delay := wheelDelay(rng)
		fire := func() {
			trace = append(trace, firing{id, now()})
			spawn()
			spawn()
		}
		if inject != nil && rng.Intn(4) == 0 {
			schedAt := now() + Time(rng.Intn(2*l0Slots)) - l0Slots
			if schedAt < 0 {
				schedAt = 0
			}
			inject(now()+delay, uint64(schedAt)<<seqTimeShift|1<<seqCtrBits|uint64(id), fire)
			return
		}
		schedule(delay, fire)
	}
	for i := 0; i < 16; i++ {
		spawn()
	}
	return &trace
}

// TestWheelAgainstHeapOracle replays a randomized 100k-event schedule
// spanning every wheel level plus the overflow heap on the timing-wheel
// engine and on the retained 4-ary heap, and demands the firing traces
// match event for event — once with local schedules only and once mixed
// with injected foreign keys. The run is chopped into RunUntil segments so
// deadline clamping and cursor catch-up after idle gaps are part of the
// replay, then drained with Run.
func TestWheelAgainstHeapOracle(t *testing.T) {
	const budget = 100_000
	for _, mixed := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 42, 1337} {
			replayWheelAgainstHeap(t, seed, budget, mixed)
		}
	}
}

func replayWheelAgainstHeap(t *testing.T, seed int64, budget int, mixed bool) {
	ref := &heapEngine{}
	var refInject func(Time, uint64, func())
	if mixed {
		refInject = ref.Inject
	}
	want := buildWheelWorkload(ref.Schedule, refInject, func() Time { return ref.now }, seed, budget)

	e := NewEngine()
	var inject func(Time, uint64, func())
	if mixed {
		var one [1]Inject
		inject = func(at Time, seq uint64, fn func()) {
			one[0] = Inject{At: at, Seq: seq, Call: callFunc, Arg: fn}
			e.InjectBatch(one[:])
		}
	}
	got := buildWheelWorkload(e.schedule, inject, e.Now, seed, budget)

	for _, deadline := range []Time{1 << levelShift(2), 1 << levelShift(4), wheelHorizon, 2 * wheelHorizon} {
		ref.RunUntil(deadline)
		e.RunUntil(deadline)
		if e.Now() != ref.now {
			t.Fatalf("seed %d mixed %v: clocks diverge after RunUntil(%d): wheel %d, heap %d", seed, mixed, deadline, e.Now(), ref.now)
		}
		if e.q.pending() != ref.h.len() {
			t.Fatalf("seed %d mixed %v: pending diverges after RunUntil(%d): wheel %d, heap %d", seed, mixed, deadline, e.q.pending(), ref.h.len())
		}
	}
	ref.Run()
	e.Run()

	if len(*got) != len(*want) {
		t.Fatalf("seed %d mixed %v: trace lengths %d/%d", seed, mixed, len(*got), len(*want))
	}
	for i := range *want {
		if (*got)[i] != (*want)[i] {
			t.Fatalf("seed %d mixed %v: traces diverge at event %d: wheel fired %+v, heap fired %+v",
				seed, mixed, i, (*got)[i], (*want)[i])
		}
	}
}

// FuzzWheelSameInstantFIFO drives arbitrary event schedules — many events
// packed onto shared instants that the wheel reaches from different levels —
// and asserts the engine contract directly: events fire ordered by
// (timestamp, seq key), each at its own instant. Ties split across levels
// are exactly the case where a careless cascade breaks FIFO (an upper-level
// slot re-filed after a lower one would jump the queue), so the program
// generator goes out of its way to reuse earlier instants, including the
// current one. A fifth of the ops inject a foreign event instead, keyed as
// if drawn by a rank-1 sender whose clock runs behind or ahead of the
// engine's, so foreign and local keys meet on the same instants.
func FuzzWheelSameInstantFIFO(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 7, 9, 40, 0, 0, 13, 200, 33, 33, 33, 33})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 255, 255, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 6, 64, 6, 64, 6, 64, 12, 1, 12, 1})
	f.Add([]byte{4, 200, 9, 3, 14, 7, 3, 3, 24, 0, 4, 4, 19, 255, 0, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		e := NewEngine()
		type key struct {
			at  Time
			seq uint64
		}
		var (
			scheduled int
			fired     []key
			instants  []Time
			foreign   uint64
			pc        int
		)
		nextByte := func() (byte, bool) {
			if pc >= len(prog) {
				return 0, false
			}
			b := prog[pc]
			pc++
			return b, true
		}
		fire := func(arg any, _ int64) {
			k := *arg.(*key)
			if e.Now() != k.at {
				t.Fatalf("event keyed (at=%d seq=%#x) fired at %d", k.at, k.seq, e.Now())
			}
			fired = append(fired, k)
		}
		schedule := func(at Time, inject bool, b byte) {
			scheduled++
			instants = append(instants, at)
			k := &key{at: at}
			if inject {
				schedAt := e.Now() + (Time(b)-128)*32
				if schedAt < 0 {
					schedAt = 0
				}
				foreign++
				k.seq = uint64(schedAt)<<seqTimeShift | 1<<seqCtrBits | foreign
				e.InjectBatch([]Inject{{At: at, Seq: k.seq, Call: fire, Arg: k}})
				return
			}
			e.AtCall(at, fire, k, 0)
			k.seq = lastSeq(e)
		}
		var step func()
		step = func() {
			// A few ops per driver firing, so scheduling happens at many
			// different cursor positions (including mid-cascade windows).
			for k := 0; k < 4; k++ {
				a, ok := nextByte()
				if !ok {
					return
				}
				b, _ := nextByte()
				// Delays span every regime: level 0, each upper level,
				// and past the horizon into the overflow heap.
				at := e.Now() + Time(b)<<(uint(a%8)*7)
				if a%3 == 0 && len(instants) > 0 {
					// Revisit an earlier instant to manufacture a tie
					// (only if it is still schedulable).
					if cand := instants[int(b)%len(instants)]; cand >= e.Now() {
						at = cand
					}
				}
				schedule(at, a%5 == 4, b)
			}
			if pc < len(prog) {
				c := Time(prog[pc])
				e.at(e.Now()+c*c+1, step)
			}
		}
		e.at(0, step)
		e.Run()

		if len(fired) != scheduled {
			t.Fatalf("fired %d of %d scheduled events", len(fired), scheduled)
		}
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at || (cur.at == prev.at && cur.seq <= prev.seq) {
				t.Fatalf("ordering violated at firing %d: (at=%d seq=%#x) after (at=%d seq=%#x)",
					i, cur.at, cur.seq, prev.at, prev.seq)
			}
		}
	})
}
