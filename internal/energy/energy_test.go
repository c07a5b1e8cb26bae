package energy

import (
	"math"
	"testing"

	"halsim/internal/sim"
)

func TestIntegratorConstantPower(t *testing.T) {
	var in Integrator
	in.Sample(0, 200)
	in.Sample(sim.Second, 200)
	if math.Abs(in.AvgWatts()-200) > 1e-9 {
		t.Fatalf("avg = %v", in.AvgWatts())
	}
}

func TestIntegratorStep(t *testing.T) {
	var in Integrator
	in.Sample(0, 100)
	in.Sample(sim.Second, 100)   // 1s at 100W
	in.Sample(3*sim.Second, 300) // 2s at 100W (piecewise: lastW until sample)
	// Segments: [0,1s)@100 + [1s,3s)@100 = 300 J over 3 s ... note the
	// 300W value only applies going forward.
	if math.Abs(in.AvgWatts()-100) > 1e-9 {
		t.Fatalf("avg = %v, want 100", in.AvgWatts())
	}
	in.Sample(4*sim.Second, 300) // 1s at 300W: 600 J over 4 s
	if math.Abs(in.AvgWatts()-150) > 1e-9 {
		t.Fatalf("avg = %v, want 150", in.AvgWatts())
	}
}

func TestIntegratorBeforeSamples(t *testing.T) {
	var in Integrator
	if in.AvgWatts() != 0 {
		t.Fatal("empty integrator should be zero")
	}
	in.Sample(100, 50)
	if in.AvgWatts() != 0 {
		t.Fatal("single sample spans no time")
	}
}

func TestIntegratorBackwardsPanics(t *testing.T) {
	var in Integrator
	in.Sample(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	in.Sample(50, 1)
}

func TestEfficiency(t *testing.T) {
	if got := EfficiencyGbpsPerWatt(50, 250); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("eff = %v", got)
	}
	if EfficiencyGbpsPerWatt(50, 0) != 0 {
		t.Fatal("zero power should report zero efficiency")
	}
}
