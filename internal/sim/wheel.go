package sim

import "math/bits"

// The engine's event queue is a hierarchical timing wheel. Level 0 buckets
// single nanoseconds across one 4096-aligned, 4096 ns window — wide enough
// that the simulator's common delays (service times, egress serialization,
// ingress pipelines, burst spans) file directly into it — and five upper
// levels of 64 slots each bucket progressively coarser power-of-two spans
// above it, so a level-l slot (l >= 1) spans 2^(12+6(l-1)) ns and the wheel
// as a whole covers 2^42 ns (~73 min). Every event in a level-0 slot shares one
// instant, so the slot's seq-sorted intrusive list IS the same-instant firing
// order. Scheduling and firing are O(1) amortized; the 4-ary heap the wheel
// replaced only survives as the far-future overflow structure (events
// beyond the horizon, e.g. the client's one-hour "no more packets" sentinel
// gap).
//
// Steady-state fast path: above0Min is a lower bound on every pending event
// above level 0 (levels >= 1 plus the overflow heap), and occ0sum is a
// summary bitmap of the non-empty words of the level-0 occupancy. While the
// earliest level-0 bit decodes to an instant strictly below the bound,
// events pop with two TrailingZeros64 and one compare — no level scan. The
// full candidate scan and the cascades only run at window crossings.
//
// Determinism contract (same-instant events fire in seq order) holds by one
// invariant, the same for serial and sharded wheels: a level-0 slot list is
// sorted by ascending seq, and upper-level slots are unordered buckets.
//
//   - Seq order only matters where a slot is a single instant, which is
//     level 0: the head resolution, HeadKey and the overflow merge only
//     ever read a level-0 head. An upper slot is re-filed event by event on
//     every cascade, so its list order carries no information.
//   - Every insert or cascade re-file that lands at level 0 splices by seq;
//     one that lands above level 0 appends. On a serial wheel the splice is
//     almost always O(1): direct inserts draw monotone seqs (tail check),
//     and a cascade carries events scheduled before any same-instant
//     level-0 resident, so re-filing the batch in reverse meets smaller
//     seqs (head check). Any other splice — e.g. a local seq landing behind
//     a foreign one drawn by a sender whose clock ran ahead — walks, but
//     only across one instant's list, never a whole upper-level bucket.
//   - A level-0 head is only resolved once no upper slot starts at or
//     before its instant (findHeadSlow cascades until then), so all of an
//     instant's upper residents are spliced into its level-0 list before
//     any of them fires.
//   - The overflow heap is merged by comparing (at, seq) against the
//     resolved wheel head, so events split across the two structures
//     interleave correctly no matter which side was scheduled first.
const (
	// Level-0 geometry: 4096 one-nanosecond slots, occupancy in 64 words —
	// exactly one summary word. The window is sized so every common
	// packet-path delay (service times, egress serialization, PCIe
	// crossings, a full client burst span) files directly into level 0,
	// making window crossings — the only slow path — rare.
	l0Bits  = 12
	l0Slots = 1 << l0Bits
	l0Mask  = l0Slots - 1
	l0Words = l0Slots / 64

	// Upper-level geometry: 64 slots per level, 5 levels.
	slotBits    = 6
	wheelSlots  = 1 << slotBits
	slotMask    = wheelSlots - 1
	upperLevels = 5
	wheelLevels = upperLevels + 1

	// wheelHorizon is the span all levels cover together; deltas at or
	// beyond it go to the overflow heap.
	wheelHorizon = Time(1) << (l0Bits + slotBits*upperLevels)
	// timeInf is a sentinel beyond any reachable simulation instant.
	timeInf = Time(1) << 62
)

// levelShift returns the log2 slot span of upper level l (1..upperLevels).
func levelShift(l int) uint { return uint(l0Bits + slotBits*(l-1)) }

// wheelSlot is one bucket: an intrusive singly-linked list into the slab,
// seq-sorted at level 0 and in arrival order above. -1 means empty.
type wheelSlot struct{ head, tail int32 }

// wheelNode is a slab cell: one scheduled event plus its list link. Freed
// cells form a free-list threaded through next, so a steady-state run
// schedules millions of events with zero allocations once the slab has
// grown to the high-water mark.
type wheelNode struct {
	ev   event
	next int32
}

// timerWheel is the engine's event queue. The zero value is ready to use
// (initialization of the -1 sentinels is gated on first insert).
type timerWheel struct {
	inited bool
	// wt is the wheel cursor. Invariant: wt never exceeds the time of any
	// pending event, so every insert has a non-negative delta.
	wt Time
	// winEnd is the exclusive end of the l0Slots-aligned level-0 window.
	// Invariant: every level-0 resident's instant is in
	// [winEnd-l0Slots, winEnd), and every upper slot overlapping that
	// range is empty.
	winEnd Time
	// above0Min lower-bounds every pending event above level 0. It is
	// tightened by inserts and recomputed by the slow path; staleness is
	// always on the low side, which only costs an extra scan.
	above0Min Time
	size      int // events resident in the levels; overflow counted separately

	occ0sum uint64              // bit w set iff occ0[w] != 0
	occ0    [l0Words]uint64     // level-0 slot occupancy
	occU    [upperLevels]uint64 // upper occupancy, index l-1

	slots0 [l0Slots]wheelSlot
	slotsU [upperLevels][wheelSlots]wheelSlot

	slab []wheelNode
	free int32

	overflow eventHeap

	// Resolved head cache: findHead fills it, pop consumes it, and
	// inserts at or before its instant invalidate it (an equal-time insert
	// may carry a foreign seq that precedes the head's).
	headValid    bool
	headOverflow bool
	headAt       Time
	headSlot     int32

	scratch []int32 // cascade batch buffer, reused across cascades

	// Slow-path self-accounting (Engine.WheelStats): combined cascades run,
	// events that ever landed in the overflow heap, and list nodes walked by
	// level-0 splices that missed both the tail and the head check.
	// Incremented only on the slow paths they count, so the hot path is
	// untouched.
	cascades    uint64
	overflowed  uint64
	spliceSteps uint64
}

func (w *timerWheel) init() {
	w.inited = true
	w.free = -1
	w.winEnd = l0Slots
	w.above0Min = timeInf
	for s := range w.slots0 {
		w.slots0[s] = wheelSlot{head: -1, tail: -1}
	}
	for l := range w.slotsU {
		for s := range w.slotsU[l] {
			w.slotsU[l][s] = wheelSlot{head: -1, tail: -1}
		}
	}
}

// pending reports how many events are queued across the levels and the
// overflow heap.
func (w *timerWheel) pending() int { return w.size + w.overflow.len() }

// place picks the level and slot for an event at absolute time at. Inside
// the current window it is always level 0. Beyond it, the level comes from
// the delta, floored at 1 so level 0 stays single-window; the lap-collision
// rule then applies: at an upper level the slot under the cursor can only
// mean "one full lap from now" (a nearer delta would have chosen a lower
// level), so the event is bumped one level up, where it provably lands
// strictly ahead of the cursor. ok=false means overflow.
func (w *timerWheel) place(at Time) (l int, idx int, ok bool) {
	if at < w.winEnd {
		if at < w.winEnd-l0Slots {
			// Below the window base: a level-0 slot would decode one lap
			// late. Reachable only by injection — a lookahead probe
			// (NextEventAt) may cascade the window of a parked engine past
			// an instant a later cross-LP message still targets. The
			// overflow heap merges by (at, seq), which is exact.
			return 0, 0, false
		}
		return 0, int(at) & l0Mask, true
	}
	d := at - w.wt
	if d >= wheelHorizon {
		return 0, 0, false
	}
	l = 1
	if d >= 1<<levelShift(2) {
		l = (bits.Len64(uint64(d))-1-l0Bits)/slotBits + 1
	}
	shift := levelShift(l)
	idx = int(uint64(at)>>shift) & slotMask
	if idx == int(uint64(w.wt)>>shift)&slotMask {
		l++
		if l > upperLevels {
			return 0, 0, false
		}
		shift += slotBits
		idx = int(uint64(at)>>shift) & slotMask
	}
	return l, idx, true
}

// reserve grows the slab's capacity to at least n cells. Cells are still
// handed out in index order, so the event order cannot change.
func (w *timerWheel) reserve(n int) {
	if n > cap(w.slab) {
		slab := make([]wheelNode, len(w.slab), n)
		copy(slab, w.slab)
		w.slab = slab
	}
}

// insertSlot files a slab cell for an event at absolute time at with seq
// key seq (the caller — the engine — guarantees at >= wt) and returns the
// cell for the caller to fill in place: one set of stores into the slab
// instead of a stack construction plus a 48-byte copy. A nil return means
// at lies beyond the horizon; the caller hands the built event to
// insertOverflow. Local schedules and injected foreign events share this
// one path: the seq decides a level-0 event's position either way.
func (w *timerWheel) insertSlot(at Time, seq uint64) *event {
	if !w.inited {
		w.init()
	}
	if w.headValid && at <= w.headAt {
		w.headValid = false
	}
	l, idx, ok := w.place(at)
	if !ok {
		if at < w.above0Min {
			w.above0Min = at
		}
		return nil
	}
	if l > 0 && at < w.above0Min {
		w.above0Min = at
	}
	n := w.free
	if n >= 0 {
		w.free = w.slab[n].next
	} else {
		w.slab = append(w.slab, wheelNode{})
		n = int32(len(w.slab) - 1)
	}
	w.fileNode(l, idx, n, seq)
	w.size++
	return &w.slab[n].ev
}

// insertOverflow queues a beyond-horizon event (insertSlot returned nil).
func (w *timerWheel) insertOverflow(ev event) {
	w.overflowed++
	w.overflow.push(ev)
}

// fileNode links node n, whose event carries seq, into slot (l, idx): by
// seq at level 0, appended to an upper-level bucket.
func (w *timerWheel) fileNode(l, idx int, n int32, seq uint64) {
	w.slab[n].next = -1
	if l == 0 {
		w.insertNodeBySeq(idx, n, seq)
		return
	}
	s := &w.slotsU[l-1][idx]
	if s.tail < 0 {
		s.head = n
		w.occU[l-1] |= 1 << uint(idx)
	} else {
		w.slab[s.tail].next = n
	}
	s.tail = n
}

// insertNodeBySeq links node n (next already -1) into level-0 slot idx
// keeping the list sorted by ascending seq — the same-instant firing order.
// The tail and head checks keep the in-order cases O(1); only the walk
// between them is counted in spliceSteps.
func (w *timerWheel) insertNodeBySeq(idx int, n int32, seq uint64) {
	s := &w.slots0[idx]
	if s.tail < 0 {
		s.head, s.tail = n, n
		w.occ0[idx>>6] |= 1 << uint(idx&63)
		w.occ0sum |= 1 << uint(idx>>6)
		return
	}
	if w.slab[s.tail].ev.seq <= seq {
		w.slab[s.tail].next = n
		s.tail = n
		return
	}
	if seq < w.slab[s.head].ev.seq {
		w.slab[n].next = s.head
		s.head = n
		return
	}
	p := s.head
	for {
		w.spliceSteps++
		nx := w.slab[p].next
		if seq < w.slab[nx].ev.seq {
			// nx >= 0: the tail check proved some resident exceeds seq.
			w.slab[n].next = nx
			w.slab[p].next = n
			return
		}
		p = nx
	}
}

// findHead resolves the earliest pending event, cascading upper slots down
// until the minimum sits in a level-0 bucket (exact instant) or the
// overflow heap wins the (at, seq) comparison. Reports false when the queue
// is empty.
func (w *timerWheel) findHead() bool {
	if w.headValid {
		return true
	}
	// Fast path: the earliest level-0 instant beats everything above
	// level 0, so no same-instant seq contest is possible.
	if s := w.occ0sum; s != 0 {
		wd := bits.TrailingZeros64(s)
		slot := wd<<6 | bits.TrailingZeros64(w.occ0[wd])
		at := w.winEnd - l0Slots + Time(slot)
		if at < w.above0Min {
			w.headValid, w.headOverflow = true, false
			w.headAt, w.headSlot = at, int32(slot)
			return true
		}
	}
	return w.findHeadSlow()
}

func (w *timerWheel) findHeadSlow() bool {
	for {
		var candSlot [wheelLevels]int
		var candAt [wheelLevels]Time
		bestL := -1
		var bestAt Time
		if s := w.occ0sum; s != 0 {
			wd := bits.TrailingZeros64(s)
			candSlot[0] = wd<<6 | bits.TrailingZeros64(w.occ0[wd])
			candAt[0] = w.winEnd - l0Slots + Time(candSlot[0])
			bestL, bestAt = 0, candAt[0]
		} else {
			candSlot[0] = -1
		}
		for l := 1; l <= upperLevels; l++ {
			candSlot[l] = -1
			m := w.occU[l-1]
			if m == 0 {
				continue
			}
			shift := levelShift(l)
			curBase := uint64(w.wt) >> shift
			cur := int(curBase) & slotMask
			off := bits.TrailingZeros64(bits.RotateLeft64(m, -cur))
			// Slot start time; for the slot under the cursor this is a
			// lower bound (<= wt), which is safe: cascading it is cheap
			// and re-files its events exactly.
			candSlot[l] = (cur + off) & slotMask
			candAt[l] = Time((curBase + uint64(off)) << shift)
			if bestL < 0 || candAt[l] < bestAt {
				bestL, bestAt = l, candAt[l]
			}
		}
		if bestL < 0 {
			if w.overflow.len() == 0 {
				return false
			}
			o := w.overflow.peek().at
			w.above0Min = o
			w.headValid, w.headOverflow, w.headAt = true, true, o
			return true
		}
		if w.overflow.len() > 0 && w.overflow.peek().at < bestAt {
			w.headValid, w.headOverflow, w.headAt = true, true, w.overflow.peek().at
			return true
		}
		cascading := false
		above := timeInf
		for l := 1; l <= upperLevels; l++ {
			if candSlot[l] < 0 {
				continue
			}
			if candAt[l] == bestAt {
				cascading = true
				break
			}
			if candAt[l] < above {
				above = candAt[l]
			}
		}
		if !cascading {
			if w.overflow.len() > 0 {
				if o := w.overflow.peek(); o.at < above {
					above = o.at
				}
			}
			w.above0Min = above
			bestSlot := candSlot[0]
			if w.overflow.len() > 0 {
				if o := w.overflow.peek(); o.at == bestAt && o.seq < w.slab[w.slots0[bestSlot].head].ev.seq {
					w.headValid, w.headOverflow, w.headAt = true, true, o.at
					return true
				}
			}
			w.headValid, w.headOverflow = true, false
			w.headAt, w.headSlot = bestAt, int32(bestSlot)
			return true
		}
		w.cascade(&candSlot, &candAt, bestAt)
	}
}

// cascade empties EVERY upper slot whose start equals the minimum candidate
// time as one combined batch, advances the window, and re-files the events
// at lower levels in reverse, so a serial wheel's level-0 splices meet the
// batch's descending seqs at the list head.
func (w *timerWheel) cascade(candSlot *[wheelLevels]int, candAt *[wheelLevels]Time, slotStart Time) {
	w.cascades++
	if slotStart > w.wt {
		// No pending event precedes slotStart (it was the minimum), so
		// advancing the cursor preserves the wt invariant and gives
		// re-filed events their true remaining delta.
		w.wt = slotStart
	}
	if e := (slotStart &^ Time(l0Mask)) + l0Slots; e > w.winEnd {
		// Level-0 is empty whenever the window jumps (its events would
		// have been an earlier minimum), so re-basing it is sound.
		w.winEnd = e
	}
	batch := w.scratch[:0]
	for l := upperLevels; l >= 1; l-- {
		if candSlot[l] < 0 || candAt[l] != slotStart {
			continue
		}
		s := &w.slotsU[l-1][candSlot[l]]
		n := s.head
		s.head, s.tail = -1, -1
		w.occU[l-1] &^= 1 << uint(candSlot[l])
		for n >= 0 {
			batch = append(batch, n)
			n = w.slab[n].next
		}
	}
	w.scratch = batch
	for i := len(batch) - 1; i >= 0; i-- {
		nd := batch[i]
		nl, idx, ok := w.place(w.slab[nd].ev.at)
		if !ok {
			// Unreachable: a cascading event's delta shrank below the
			// source slot's span, which fits the wheel by construction.
			panic("sim: cascade overflow")
		}
		w.fileNode(nl, idx, nd, w.slab[nd].ev.seq)
	}
}

// pop removes the head findHead resolved and returns its payload straight
// from the slab cell (or the overflow heap). findHead must have reported
// true since the last mutation. The cell is unlinked, its references are
// cleared and it is freed before pop returns, because the handler the
// caller then runs may schedule into the same cell.
func (w *timerWheel) pop() (at Time, call Call, arg any, n int64) {
	w.headValid = false
	at = w.headAt
	if w.headOverflow {
		ev := w.overflow.pop()
		w.wt = at
		if e := (at &^ Time(l0Mask)) + l0Slots; e > w.winEnd {
			w.winEnd = e
		}
		return at, ev.call, ev.arg, ev.n
	}
	s := &w.slots0[w.headSlot]
	c := s.head
	nd := &w.slab[c]
	call, arg, n = nd.ev.call, nd.ev.arg, nd.ev.n
	s.head = nd.next
	if s.head < 0 {
		s.tail = -1
		wd := w.headSlot >> 6
		w.occ0[wd] &^= 1 << uint(w.headSlot&63)
		if w.occ0[wd] == 0 {
			w.occ0sum &^= 1 << uint(wd)
		}
	}
	// Drop the freed cell's references so the retained slab pins no
	// closures, handlers, or packets for the garbage collector; the
	// scalars are fully overwritten on reuse.
	nd.ev.call = nil
	nd.ev.arg = nil
	nd.next = w.free
	w.free = c
	w.size--
	w.wt = at
	return at, call, arg, n
}
