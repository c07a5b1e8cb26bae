package countfn

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"halsim/internal/rng"
)

func batch(keys ...uint64) []byte {
	b := make([]byte, len(keys)*8)
	for i, k := range keys {
		binary.BigEndian.PutUint64(b[i*8:], k)
	}
	return b
}

func TestCountsIncrement(t *testing.T) {
	f := NewFunc(4, 100)
	resp, err := f.Process(batch(1, 1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	got := []uint64{
		binary.BigEndian.Uint64(resp[0:]),
		binary.BigEndian.Uint64(resp[8:]),
		binary.BigEndian.Uint64(resp[16:]),
		binary.BigEndian.Uint64(resp[24:]),
	}
	want := []uint64{1, 2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
	if f.CountOf(1) != 3 || f.CountOf(2) != 1 || f.CountOf(99) != 0 {
		t.Fatal("CountOf mismatch")
	}
}

func TestMalformed(t *testing.T) {
	f := NewFunc(4, 100)
	if _, err := f.Process(nil); err != ErrEmpty {
		t.Fatalf("empty: %v", err)
	}
	if _, err := f.Process(make([]byte, 9)); err != ErrMisaligned {
		t.Fatalf("misaligned: %v", err)
	}
}

func TestSketchOverflowPath(t *testing.T) {
	f := NewFunc(1, 4) // exact table caps at 4 keys
	for k := uint64(0); k < 10; k++ {
		if _, err := f.Process(batch(k)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Overflowed == 0 {
		t.Fatal("keys beyond the exact capacity must hit the sketch")
	}
	// Sketch estimates never underestimate.
	for k := uint64(4); k < 10; k++ {
		if f.CountOf(k) < 1 {
			t.Fatalf("sketch underestimated key %d", k)
		}
	}
}

func TestSketchNeverUnderestimates(t *testing.T) {
	s := NewSketch(4, 256)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(300))
		s.Add(k)
		truth[k]++
	}
	for k, c := range truth {
		if est := s.Estimate(k); est < c {
			t.Fatalf("estimate(%d) = %d < true %d", k, est, c)
		}
	}
}

func TestSketchPropertyUpperBound(t *testing.T) {
	f := func(keys []uint8) bool {
		s := NewSketch(3, 64)
		truth := map[uint64]uint64{}
		for _, k := range keys {
			s.Add(uint64(k))
			truth[uint64(k)]++
		}
		for k, c := range truth {
			if s.Estimate(k) < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSketch(0, 10)
}

func TestStateLines(t *testing.T) {
	f := NewFunc(4, 100)
	lines := f.StateLines(batch(1, 2, 3, 1))
	if len(lines) != 4 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != lines[3] {
		t.Fatal("same key must map to the same state line")
	}
}

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "4", "8"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(2, rng.Payload, 0)
		for i := 0; i < 20; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatal(err)
			}
		}
		if fn.(*Func).Batch() == 0 {
			t.Fatal("batch unset")
		}
	}
}

func BenchmarkProcessBatch8(b *testing.B) {
	f := NewFunc(8, 1<<15)
	req := batch(1, 2, 3, 4, 5, 6, 7, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Process(req); err != nil {
			b.Fatal(err)
		}
	}
}
