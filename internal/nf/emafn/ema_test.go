package emafn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"halsim/internal/rng"
)

func rec(key uint64, sample float32) []byte {
	b := make([]byte, 12)
	binary.BigEndian.PutUint64(b[0:8], key)
	binary.BigEndian.PutUint32(b[8:12], math.Float32bits(sample))
	return b
}

func respVal(resp []byte, i int) float32 {
	return math.Float32frombits(binary.BigEndian.Uint32(resp[i*4:]))
}

func TestFirstSampleInitializes(t *testing.T) {
	f := NewFunc(1, 0.5)
	resp, err := f.Process(rec(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if respVal(resp, 0) != 10 {
		t.Fatalf("first avg = %v, want 10", respVal(resp, 0))
	}
}

func TestEMAFormula(t *testing.T) {
	f := NewFunc(1, 0.5)
	f.Process(rec(1, 10))
	resp, _ := f.Process(rec(1, 20))
	if got := respVal(resp, 0); got != 15 {
		t.Fatalf("avg = %v, want 15", got)
	}
	resp, _ = f.Process(rec(1, 15))
	if got := respVal(resp, 0); got != 15 {
		t.Fatalf("avg = %v, want 15", got)
	}
	if v, ok := f.Average(1); !ok || v != 15 {
		t.Fatalf("Average = %v,%v", v, ok)
	}
	if _, ok := f.Average(42); ok {
		t.Fatal("unseen key should report !ok")
	}
}

func TestKeysIndependent(t *testing.T) {
	f := NewFunc(2, 0.5)
	req := append(rec(1, 100), rec(2, 4)...)
	resp, err := f.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if respVal(resp, 0) != 100 || respVal(resp, 1) != 4 {
		t.Fatal("keys must not interfere")
	}
}

func TestConvergesToConstant(t *testing.T) {
	f := NewFunc(1, 0.125)
	f.Process(rec(9, 0))
	for i := 0; i < 200; i++ {
		f.Process(rec(9, 50))
	}
	v, _ := f.Average(9)
	if math.Abs(float64(v)-50) > 0.01 {
		t.Fatalf("EMA should converge to 50, got %v", v)
	}
}

func TestMalformed(t *testing.T) {
	f := NewFunc(4, 0.5)
	if _, err := f.Process(nil); err != ErrEmpty {
		t.Fatalf("empty: %v", err)
	}
	if _, err := f.Process(make([]byte, 13)); err != ErrMisaligned {
		t.Fatalf("misaligned: %v", err)
	}
}

func TestAlphaValidation(t *testing.T) {
	for _, alpha := range []float32{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v should panic", alpha)
				}
			}()
			NewFunc(1, alpha)
		}()
	}
}

func TestStateLines(t *testing.T) {
	f := NewFunc(2, 0.5)
	req := append(rec(7, 1), rec(7, 2)...)
	lines := f.StateLines(req)
	if len(lines) != 2 || lines[0] != lines[1] {
		t.Fatalf("lines = %v", lines)
	}
}

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "4", "8"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(3, rng.Payload, 0)
		for i := 0; i < 20; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkProcess(b *testing.B) {
	f := NewFunc(8, 0.125)
	rng := rand.New(rand.NewSource(1))
	req := make([]byte, 0, 96)
	for i := 0; i < 8; i++ {
		req = append(req, rec(uint64(rng.Intn(100)), rng.Float32())...)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(req); err != nil {
			b.Fatal(err)
		}
	}
}
