package knnfn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"halsim/internal/rng"
)

func queryBytes(k byte, x [Dim]float32) []byte {
	b := make([]byte, 1+4*Dim)
	b[0] = k
	for d := 0; d < Dim; d++ {
		binary.BigEndian.PutUint32(b[1+4*d:], math.Float32bits(x[d]))
	}
	return b
}

func TestClassifyNearCluster(t *testing.T) {
	// Build a tiny controlled model: two well-separated clusters.
	m := &Model{labels: 2}
	for i := 0; i < 8; i++ {
		var a, b Point
		a.Label, b.Label = 0, 1
		for d := range a.X {
			a.X[d] = 0 + float32(i)*0.01
			b.X[d] = 100 + float32(i)*0.01
		}
		m.points = append(m.points, a, b)
	}
	var q [Dim]float32 // at origin → cluster 0
	label, dists := m.Classify(&q, 5)
	if label != 0 {
		t.Fatalf("label = %d, want 0", label)
	}
	if len(dists) != 5 {
		t.Fatalf("dists = %v", dists)
	}
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1] {
			t.Fatal("distances must be ascending")
		}
	}
	for d := range q {
		q[d] = 100
	}
	if label, _ := m.Classify(&q, 5); label != 1 {
		t.Fatalf("far query label = %d, want 1", label)
	}
}

func TestClassifyKClamped(t *testing.T) {
	m := NewModel(2, 4, 1) // 8 points total
	var q [Dim]float32
	_, dists := m.Classify(&q, 100)
	if len(dists) != 8 {
		t.Fatalf("k should clamp to model size, got %d dists", len(dists))
	}
	_, dists = m.Classify(&q, 0)
	if len(dists) != 8 {
		t.Fatal("k=0 should clamp to model size")
	}
}

func TestModelDeterministic(t *testing.T) {
	a, b := NewModel(4, 8, 3), NewModel(4, 8, 3)
	if a.Size() != b.Size() {
		t.Fatal("sizes differ")
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatal("points differ for same seed")
		}
	}
}

func TestSelfQueryNearestIsSelf(t *testing.T) {
	m := NewModel(8, 8, 2)
	for i := 0; i < 10; i++ {
		p := m.points[i*3]
		_, dists := m.Classify(&p.X, 1)
		if dists[0] != 0 {
			t.Fatalf("nearest to a reference point should be itself, dist %v", dists[0])
		}
	}
}

func TestProcess(t *testing.T) {
	f := NewFunc(8)
	var q [Dim]float32
	resp, err := f.Process(queryBytes(5, q))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1+4*5 {
		t.Fatalf("resp len = %d", len(resp))
	}
	if int(resp[0]) >= f.Model().Labels() {
		t.Fatal("label out of range")
	}
}

func TestProcessDefaultsK(t *testing.T) {
	f := NewFunc(8)
	var q [Dim]float32
	resp, err := f.Process(queryBytes(0, q))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1+4*5 {
		t.Fatalf("default k should be 5, resp len = %d", len(resp))
	}
}

func TestProcessMalformed(t *testing.T) {
	f := NewFunc(8)
	if _, err := f.Process(make([]byte, 10)); err != ErrShort {
		t.Fatalf("short: %v", err)
	}
	var q [Dim]float32
	req := queryBytes(255, q) // k > model size
	if _, err := f.Process(req); err != ErrBadK {
		t.Fatalf("bad k: %v", err)
	}
}

func TestFactory(t *testing.T) {
	for _, cfg := range []string{"", "8", "16"} {
		fn, gen, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rng.Stream(6, rng.Payload, 0)
		for i := 0; i < 20; i++ {
			if _, err := fn.Process(gen.NextInto(&rng, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	f := NewFunc(16)
	rng := rand.New(rand.NewSource(1))
	var q [Dim]float32
	for d := range q {
		q[d] = float32(rng.NormFloat64() * 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Model().Classify(&q, 5)
	}
}
