package sim

import "testing"

// Regression: a lookahead probe (NextEventAt) on a parked engine cascades
// the timing wheel's level-0 window up to the earliest pending event, which
// can sit far past the engine clock. A cross-LP injection then targets an
// instant at or after the clock but BELOW the advanced window's base; filing
// it into a level-0 slot would decode one 4096 ns lap late. place must route
// such instants to the overflow heap, where the (at, seq) merge is exact.
func TestInjectBelowWindowBase(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func(any, int64) { fired = append(fired, e.Now()) }

	// A lone far event: after the probe below, the wheel's window covers its
	// 4096-aligned neighborhood, thousands of ns past the parked clock.
	e.AtCall(50_000, rec, nil, 0)
	e.RunBefore(100) // parks now=100 without firing anything
	if at, ok := e.NextEventAt(); !ok || at != 50_000 {
		t.Fatalf("NextEventAt = %v, %v; want 50000, true", at, ok)
	}

	// Inject at 200: legal (>= now), yet far below the advanced window base.
	seq := uint64(100)<<seqTimeShift | 1<<seqCtrBits // sender at t=100, rank 1
	e.InjectBatch([]Inject{{At: 200, Seq: seq, Call: rec}})
	e.RunBefore(10_000)
	if len(fired) != 1 || fired[0] != 200 {
		t.Fatalf("fired = %v, want [200]", fired)
	}
	e.Run()
	if len(fired) != 2 || fired[1] != 50_000 {
		t.Fatalf("fired = %v, want [200 50000]", fired)
	}

	// Same-instant injections below the base must still merge in seq order
	// against each other and against wheel residents.
	e2 := NewEngine()
	var order []int64
	rec2 := func(_ any, n int64) { order = append(order, n) }
	e2.AtCall(90_000, rec2, nil, 9)
	e2.RunBefore(50)
	e2.NextEventAt() // cascade the window to 90000's neighborhood
	e2.InjectBatch([]Inject{
		{At: 300, Seq: uint64(60)<<seqTimeShift | 2<<seqCtrBits, Call: rec2, N: 2},
		{At: 300, Seq: uint64(60)<<seqTimeShift | 1<<seqCtrBits, Call: rec2, N: 1},
	})
	e2.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 9 {
		t.Fatalf("order = %v, want [1 2 9]", order)
	}
}

// Regression guard for the cost of seq splices: only level-0 lists are kept
// in seq order, so thousands of foreign events pre-filed into one upper-level
// slot, with same-instant local schedules carrying smaller seqs interleaved
// among them, must cost a small constant per event. A wheel that kept the
// whole bucket seq-sorted walked past every earlier local event on each
// local insert here (quadratic in the bucket's population).
func TestSpliceStepsStayPerInstant(t *testing.T) {
	const (
		rounds   = 1000
		perRound = 3
		base     = 2 * l0Slots // level-1 slot [8192, 12288) while the window is [0, 4096)
	)
	e := NewEngine()
	var ref eventHeap
	var got []int64
	rec := func(_ any, n int64) { got = append(got, n) }
	var id int64
	batch := make([]Inject, 0, perRound)
	drive := func(_ any, r int64) {
		for k := int64(0); k < perRound; k++ {
			// Spread the rounds over 1024 instants, about three rounds each.
			at := base + Time((r*perRound+k)*7%1024)*4
			// A rank-1 sender 6 µs ahead draws larger keys than any local
			// schedule of this test.
			seq := uint64(6000+r)<<seqTimeShift | 1<<seqCtrBits | uint64(k)
			batch = append(batch, Inject{At: at, Seq: seq, Call: rec, N: id})
			ref.push(event{at: at, seq: seq, n: id})
			id++
			e.AtCall(at, rec, nil, id)
			ref.push(event{at: at, seq: lastSeq(e), n: id})
			id++
		}
		e.InjectBatch(batch)
		batch = batch[:0]
	}
	// The drivers fire inside the level-0 window below every pre-filed
	// instant, so the bucket is only cascaded once they are all done.
	for r := 0; r < rounds; r++ {
		e.AtCall(Time(r)*4, drive, nil, int64(r))
	}
	e.Run()

	if len(got) != ref.len() {
		t.Fatalf("fired %d of %d events", len(got), ref.len())
	}
	for i := range got {
		if want := ref.pop().n; got[i] != want {
			t.Fatalf("firing %d: got event %d, want %d", i, got[i], want)
		}
	}
	if ws := e.WheelStats(); ws.SpliceSteps > 4*uint64(id) {
		t.Fatalf("SpliceSteps = %d for %d events (%.1f per event); want <= 4 per event",
			ws.SpliceSteps, id, float64(ws.SpliceSteps)/float64(id))
	}
}

// Regression: an injected event at the SAME instant as a resolved head may
// carry a smaller seq and must fire first. Here the cached head is an
// overflow-heap event at f; a foreign event keyed before it lands in the
// wheel at f (the cursor has since moved a level-5 slot past f's lap), and
// only invalidating the head cache on an equal-time insert lets the (at, seq)
// merge see it.
func TestInjectAtCachedHeadInstant(t *testing.T) {
	e := NewEngine()
	var order []int64
	rec := func(_ any, n int64) { order = append(order, n) }
	const f = 1500 + wheelHorizon // beyond the horizon when scheduled at t=1500
	// A cursor position one top-level slot on, from which f is in the wheel.
	move := Time(1)<<levelShift(upperLevels) + 2000
	e.AtCall(1500, func(any, int64) { e.AtCall(f, rec, nil, 2) }, nil, 0)
	e.AtCall(move, func(any, int64) {}, nil, 0)
	e.RunBefore(move + 1)
	if at, ok := e.NextEventAt(); !ok || at != f {
		t.Fatalf("NextEventAt = %v, %v; want %d, true", at, ok, Time(f))
	}
	seq := uint64(1000)<<seqTimeShift | 1<<seqCtrBits // sender at t=1000, rank 1
	e.InjectBatch([]Inject{{At: f, Seq: seq, Call: rec, N: 1}})
	if ws := e.WheelStats(); ws.Overflow != 1 {
		t.Fatalf("Overflow = %d, want 1 (the injected event must land in the wheel)", ws.Overflow)
	}
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}
