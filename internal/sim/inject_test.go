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
