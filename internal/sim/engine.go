// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is modeled as int64 nanoseconds. Events scheduled for the same
// instant fire in scheduling order (FIFO), which makes every run with the
// same inputs bit-for-bit reproducible. The engine is deliberately
// single-threaded: simulated concurrency comes from interleaved events, not
// goroutines, so there are no data races and no timing nondeterminism.
//
// The event queue is a hierarchical timing wheel (wheel.go): power-of-two
// nanosecond buckets across six levels, cascading overflow between levels,
// and a far-future overflow heap (heap.go) beyond the ~73 min horizon.
// Scheduling and firing are O(1) amortized instead of the previous 4-ary
// heap's O(log n) sifts. All wheel storage — the node slab, the free-list
// threaded through it, the cascade scratch — is retained across Run/RunUntil
// cycles, so a steady-state simulation schedules millions of events with
// zero allocations. Events are scheduled with ScheduleCall/AtCall, which
// carry a pre-bound handler plus two argument words instead of a freshly
// captured closure.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a standard library duration to simulated Time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// Call is the closure-free event handler form: a pre-bound function invoked
// with the two argument words the event carries. arg is a pointer-shaped
// payload (boxing a pointer into an interface does not allocate); n is a
// scalar for indices, generations, sizes.
type Call func(arg any, n int64)

// Same-instant tie-break keys. A seq is not a plain counter but a composite
// word — (schedule-time << 28) | (engine rank << 20) | (per-instant counter)
// — so that keys drawn by different engines of a sharded run are mutually
// comparable in one uint64 compare:
//
//	bits 63..28  the engine clock when the event was scheduled (schedAt)
//	bits 27..20  the scheduling engine's rank (0 in a serial run)
//	bits 19..0   schedules issued at that instant so far, reset on advance
//
// For a single engine this orders events exactly like the old monotone
// counter (the clock never moves backwards, so the word is strictly
// increasing across schedules), which keeps serial runs bit-identical. For
// the conservative-parallel engine (sim/par) it makes same-instant ordering
// a pure function of when-and-where an event was scheduled, so events
// received from another logical process merge into the destination wheel at
// a deterministic position. The rank field is eight bits wide so a
// thousand-server fleet can give every server group its own ranked engine
// (up to 255 LPs plus control); the 36 bits left for schedAt still encode
// ~68 simulated seconds, far past any experiment (runs are ms-scale), and
// the guards below reject runs long or dense enough to overflow the fields.
// Widening the shift is order-preserving for serial runs: keys remain
// strictly increasing in schedule order, so pre-widening goldens are
// unaffected.
const (
	seqCtrBits   = 20
	seqRankBits  = 8
	seqTimeShift = seqCtrBits + seqRankBits
	seqMaxCtr    = 1<<seqCtrBits - 1
	seqMaxRank   = 1<<seqRankBits - 1
	// SeqMaxTime is the largest schedule instant encodable in a seq key.
	SeqMaxTime = Time(1)<<(64-seqTimeShift) - 1
)

// event is a scheduled callback, stored by value inside the wheel slab and
// the overflow heap: a pre-bound handler and its two argument words.
type event struct {
	at   Time
	seq  uint64 // tie-break among same-time events; see the seq layout above
	call Call
	arg  any
	n    int64
}

// before reports queue ordering: earliest time first, FIFO within a time.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	q    timerWheel
	now  Time
	rank uint64 // preshifted into seq keys; 0 for a serial engine

	// seq-key generator state: the instant the last key was drawn at and
	// the count of keys drawn at that instant.
	seqAt  Time
	seqCtr uint64

	processed uint64
	// tickersOff, once CancelTickers sets it, stops every periodic
	// process on the engine.
	tickersOff bool
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// SetRank tags every seq key the engine draws with a logical-process rank
// (0..255) so keys from different engines of a sharded run never collide.
// Call before scheduling anything; a serial engine keeps the default rank 0.
func (e *Engine) SetRank(rank int) {
	if rank < 0 || rank > seqMaxRank {
		panic(fmt.Sprintf("sim: rank %d out of range", rank))
	}
	e.rank = uint64(rank)
}

// Reserve sizes the event queue to hold n simultaneously pending events
// without growing: an owner that knows how many events it will file — a
// fleet group schedules a few periodic processes per server before any
// traffic — sizes the queue once instead of letting it grow by doubling.
// It changes no event's order and never shrinks the queue.
func (e *Engine) Reserve(n int) { e.q.reserve(n) }

// nextSeq draws the next same-instant tie-break key. Within one engine the
// keys are strictly increasing across schedules (clock monotone, counter
// monotone within an instant), preserving the FIFO contract.
func (e *Engine) nextSeq() uint64 {
	if e.now != e.seqAt {
		if e.now > SeqMaxTime {
			panic(fmt.Sprintf("sim: instant %d exceeds seq-key range", e.now))
		}
		e.seqAt, e.seqCtr = e.now, 0
	}
	c := e.seqCtr
	if c > seqMaxCtr {
		panic(fmt.Sprintf("sim: more than %d events scheduled at instant %d", seqMaxCtr, e.now))
	}
	e.seqCtr++
	return uint64(e.now)<<seqTimeShift | e.rank<<seqCtrBits | c
}

// AllocSeq draws a seq key at the current instant without scheduling a
// local event. The conservative-parallel engine stamps cross-LP messages
// with the sender's key, so an event injected into the destination wheel
// lands exactly where a serial run would have scheduled it.
func (e *Engine) AllocSeq() uint64 { return e.nextSeq() }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// WheelStats is a snapshot of the timing wheel's slow-path counters:
// combined cascades run, events that ever took the overflow heap, the slab
// high-water mark (peak simultaneously-filed events), and the list nodes
// walked by same-instant seq splices that missed the O(1) tail and head
// checks. Deterministic for a given seed and engine partition — the wheel's
// behavior is a pure function of the event population.
type WheelStats struct {
	Cascades      uint64
	Overflow      uint64
	SlabHighWater int
	SpliceSteps   uint64
}

// WheelStats snapshots the engine's timing-wheel counters.
func (e *Engine) WheelStats() WheelStats {
	return WheelStats{
		Cascades:      e.q.cascades,
		Overflow:      e.q.overflowed,
		SlabHighWater: len(e.q.slab),
		SpliceSteps:   e.q.spliceSteps,
	}
}

// NextEventAt reports the earliest pending event time, if any.
func (e *Engine) NextEventAt() (Time, bool) {
	if !e.q.findHead() {
		return 0, false
	}
	return e.q.headAt, true
}

// HeadKey reports the (at, seq) order key of the earliest pending event.
func (e *Engine) HeadKey() (Time, uint64, bool) {
	if !e.q.findHead() {
		return 0, 0, false
	}
	if e.q.headOverflow {
		ev := e.q.overflow.peek()
		return ev.at, ev.seq, true
	}
	return e.q.headAt, e.q.slab[e.q.slots0[e.q.headSlot].head].ev.seq, true
}

// ScheduleCall runs call(arg, n) after delay. A negative delay panics:
// simulated time cannot move backwards. The caller passes a handler bound
// once (a struct field, not a fresh closure or method value) plus the
// per-event arguments, so scheduling a packet event costs no heap
// allocation at all.
func (e *Engine) ScheduleCall(delay Time, call Call, arg any, n int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.AtCall(e.now+delay, call, arg, n)
}

// AtCall runs call(arg, n) at absolute time t, which must not precede the
// current time.
func (e *Engine) AtCall(t Time, call Call, arg any, n int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	seq := e.nextSeq()
	if ev := e.q.insertSlot(t, seq); ev != nil {
		*ev = event{at: t, seq: seq, call: call, arg: arg, n: n}
	} else {
		e.q.insertOverflow(event{at: t, seq: seq, call: call, arg: arg, n: n})
	}
}

// Inject is one cross-engine event for InjectBatch: the delivery instant,
// the sender-drawn seq key, and the payload.
type Inject struct {
	At   Time
	Seq  uint64
	Call Call
	Arg  any
	N    int64
}

// InjectBatch splices a batch of foreign events into the wheel under their
// caller-supplied seq keys instead of locally drawn ones. This is the
// cross-LP merge path of the conservative-parallel engine: each key was
// drawn by the SENDING engine's AllocSeq at send time, so filing by key
// reproduces exactly the firing position a serial run would have given the
// event. No event may precede the destination clock (the lookahead window
// guarantees that). One call delivers a whole outbox. Every consumed
// entry is zeroed in place so the caller's reusable outbox slice does not
// keep delivered Arg payloads (packets) reachable across windows; callers
// truncate the batch with batch[:0] afterwards and reuse the backing array.
func (e *Engine) InjectBatch(batch []Inject) {
	for i := range batch {
		m := &batch[i]
		if m.At < e.now {
			panic(fmt.Sprintf("sim: inject at %d before now %d", m.At, e.now))
		}
		if ev := e.q.insertSlot(m.At, m.Seq); ev != nil {
			*ev = event{at: m.At, seq: m.Seq, call: m.Call, arg: m.Arg, n: m.N}
		} else {
			e.q.insertOverflow(event{at: m.At, seq: m.Seq, call: m.Call, arg: m.Arg, n: m.N})
		}
		*m = Inject{}
	}
}

// fire runs the head event findHead resolved: the clock moves to its
// instant, and its handler runs after pop has freed its cell.
func (e *Engine) fire() {
	at, call, arg, n := e.q.pop()
	e.now = at
	e.processed++
	call(arg, n)
}

// RunUntil executes events in timestamp order until the queue empties or
// the next event would fire after deadline. The clock is left at deadline,
// so periodic processes restarted later resume consistently.
func (e *Engine) RunUntil(deadline Time) {
	for e.q.findHead() && e.q.headAt <= deadline {
		e.fire()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events strictly before deadline and leaves the clock
// parked at deadline. It is the windowed-advance primitive of the parallel
// engine: a logical process may safely run everything in [now, deadline)
// when the coordinator has proven no message can arrive before deadline;
// events at the deadline itself belong to the next window (or the barrier's
// merged-instant step).
func (e *Engine) RunBefore(deadline Time) {
	for e.q.findHead() && e.q.headAt < deadline {
		e.fire()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// PopRun executes exactly the earliest pending event, if any. The parallel
// coordinator single-steps engines with it at barrier instants, interleaving
// same-instant events of different logical processes in global key order.
func (e *Engine) PopRun() {
	if e.q.findHead() {
		e.fire()
	}
}

// Run executes every pending event (including ones scheduled while
// running) until the queue drains, leaving the clock at the last event.
func (e *Engine) Run() {
	for e.q.findHead() {
		e.fire()
	}
}

// Ticker is one periodic process, a record its owner holds by value:
// Every arms it, and each tick runs call(arg, 0) and re-arms one period
// later until CancelTickers. Every tick event carries the record itself
// to the one package-level handler, so a periodic process needs no
// closure, bound method value or engine-side record of its own. call
// observes the clock via Engine.Now. An armed Ticker must not be copied.
type Ticker struct {
	e      *Engine
	period Time
	call   Call
	arg    any
}

// tick is the re-arming handler of every Ticker.
func tick(arg any, _ int64) {
	t := arg.(*Ticker)
	if t.e.tickersOff {
		return
	}
	t.call(t.arg, 0)
	if !t.e.tickersOff {
		t.e.ScheduleCall(t.period, tick, t, 0)
	}
}

// Every arms t to run call(arg, 0) every period, starting one period from
// now, until CancelTickers. arg is pointer-shaped, usually t's owner, and
// call a function bound once, so arming allocates nothing.
func (e *Engine) Every(t *Ticker, period Time, call Call, arg any) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %d", period))
	}
	*t = Ticker{e: e, period: period, call: call, arg: arg}
	e.ScheduleCall(period, tick, t, 0)
}

// CancelTickers stops every periodic process on the engine, so a drained
// run's event queue can empty. A tick in flight still completes; each
// ticker's already-scheduled next tick fires as a no-op, and a ticker
// armed afterwards never runs.
func (e *Engine) CancelTickers() { e.tickersOff = true }
