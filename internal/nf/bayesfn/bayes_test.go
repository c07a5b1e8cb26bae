package bayesfn

import (
	"math"
	"math/rand"
	"testing"

	"halsim/internal/rng"
)

func TestModelShapes(t *testing.T) {
	m := NewModel(128, 8, 1)
	if m.Features() != 128 || m.Classes() != 8 {
		t.Fatalf("shape = %d/%d", m.Features(), m.Classes())
	}
}

func TestModelDeterministic(t *testing.T) {
	a, b := NewModel(64, 4, 9), NewModel(64, 4, 9)
	bitmap := make([]byte, 8)
	for i := range bitmap {
		bitmap[i] = byte(i * 37)
	}
	la, ma := a.Classify(bitmap)
	lb, mb := b.Classify(bitmap)
	if la != lb || ma != mb {
		t.Fatal("same seed must classify identically")
	}
}

func TestClassifyRecoversGeneratingClass(t *testing.T) {
	// Draw samples from class c's Bernoulli parameters; the MAP class
	// should usually be c.
	m := NewModel(128, 4, 3)
	rng := rand.New(rand.NewSource(5))
	correct := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		c := rng.Intn(4)
		bitmap := make([]byte, 16)
		for f := 0; f < 128; f++ {
			if rng.Float64() < math.Exp(m.logOn[c][f]) {
				bitmap[f>>3] |= 1 << (f & 7)
			}
		}
		got, _ := m.Classify(bitmap)
		if got == c {
			correct++
		}
	}
	if correct < trials*9/10 {
		t.Fatalf("recovered generating class only %d/%d times", correct, trials)
	}
}

func TestMarginNonNegative(t *testing.T) {
	m := NewModel(64, 4, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		bitmap := make([]byte, 8)
		rng.Read(bitmap)
		_, margin := m.Classify(bitmap)
		if margin < 0 {
			t.Fatalf("margin %v < 0", margin)
		}
	}
}

func TestProcess(t *testing.T) {
	f := NewFunc(128)
	req := make([]byte, 16)
	resp, err := f.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 2 {
		t.Fatalf("resp len = %d", len(resp))
	}
	if int(resp[0]) >= f.Model().Classes() {
		t.Fatal("label out of range")
	}
}

func TestProcessShort(t *testing.T) {
	f := NewFunc(128)
	if _, err := f.Process(make([]byte, 15)); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
}

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "128", "256"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(7, rng.Payload, 0)
		for i := 0; i < 20; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkClassify256(b *testing.B) {
	f := NewFunc(256)
	req := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(req)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(req); err != nil {
			b.Fatal(err)
		}
	}
}
