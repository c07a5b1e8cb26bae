package dpdk

import (
	"testing"

	"halsim/internal/rng"
)

// faultStream returns a fault stream, as a run holds one.
func faultStream(seed int64) *rng.Rand {
	r := rng.Stream(seed, rng.Fault, 0)
	return &r
}

func TestRxFaultDropsAtProbability(t *testing.T) {
	p := NewPort(2, 1024)
	p.SetRxFault(0.5, faultStream(1))
	const n = 2000
	var accepted int
	for i := uint64(0); i < n; i++ {
		if deliver(&p, pkt(i)) {
			accepted++
			// keep rings from tail-dropping
			burst(p.Queue(int(i%2)), nil, burstSize)
		}
	}
	dropped := p.TotalFaultDrops()
	if dropped == 0 || accepted == 0 {
		t.Fatalf("dropped = %d, accepted = %d; want both nonzero", dropped, accepted)
	}
	frac := float64(dropped) / n
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("fault drop fraction %.3f, want ~0.5", frac)
	}
	if p.TotalDrops() != 0 {
		t.Fatalf("fault drops leaked into tail drops: %d", p.TotalDrops())
	}
}

func TestRxFaultClears(t *testing.T) {
	p := NewPort(1, 16)
	p.SetRxFault(1.0, faultStream(2))
	if deliver(&p, pkt(1)) {
		t.Fatal("prob 1.0 should drop everything")
	}
	p.SetRxFault(0, nil)
	if !deliver(&p, pkt(2)) {
		t.Fatal("cleared fault should accept")
	}
	if got := p.TotalFaultDrops(); got != 1 {
		t.Fatalf("fault drops = %d, want 1", got)
	}
	// A nil rng with positive prob also clears (defensive).
	p.SetRxFault(0.5, nil)
	if !deliver(&p, pkt(3)) {
		t.Fatal("nil rng must not impair")
	}
}

func TestRxFaultDeterministic(t *testing.T) {
	run := func() uint64 {
		p := NewPort(4, 64)
		p.SetRxFault(0.3, faultStream(7))
		for i := uint64(0); i < 500; i++ {
			deliver(&p, pkt(i))
		}
		return p.TotalFaultDrops()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
}
