package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.P99() != 0 {
		t.Fatal("empty P99 should be 0")
	}
}

func TestHistogramSingle(t *testing.T) {
	h := NewHistogram()
	h.Record(12345)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 12345 || h.Max() != 12345 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 12345 {
			t.Fatalf("Quantile(%v) = %d, want 12345", q, got)
		}
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Values below the sub-bucket count are stored exactly.
	h := NewHistogram()
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.5); got != 31 && got != 32 {
		t.Fatalf("median = %d, want 31 or 32", got)
	}
	if h.Max() != 63 || h.Min() != 0 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	ex := &Exact{}
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~6 decades, like latencies ns..ms.
		v := int64(math.Exp(rng.Float64() * 14))
		h.Record(v)
		ex.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		approx := float64(h.Quantile(q))
		exact := float64(ex.Quantile(q))
		if exact == 0 {
			continue
		}
		rel := math.Abs(approx-exact) / exact
		if rel > 0.04 {
			t.Errorf("q=%v: approx %v vs exact %v, rel err %.3f > 4%%", q, approx, exact, rel)
		}
		if approx < exact*0.999 {
			t.Errorf("q=%v: histogram under-reports (%v < %v)", q, approx, exact)
		}
	}
}

func TestHistogramQuantilePropertyMonotone(t *testing.T) {
	f := func(vals []uint32) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileWithinRange(t *testing.T) {
	f := func(vals []uint16, qRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(int64(v))
		}
		q := float64(qRaw) / 255
		got := h.Quantile(q)
		return got >= h.Min() && got <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 5000)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 5999 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	med := a.Quantile(0.5)
	if med < 900 || med > 5100 {
		t.Fatalf("merged median = %d, expected near the gap", med)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("reuse after reset broken")
	}
}

func TestHistogramRecordN(t *testing.T) {
	h := NewHistogram()
	h.RecordN(50, 99)
	h.RecordN(1000000, 1)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.P50() != 50 {
		t.Fatalf("p50 = %d, want 50", h.P50())
	}
	if p99 := h.P99(); p99 != 50 {
		// rank ceil(0.99*100)=99 → still the 50s.
		t.Fatalf("p99 = %d, want 50", p99)
	}
	if h.Quantile(0.995) < 900000 {
		t.Fatalf("q0.995 = %d, want ~1e6", h.Quantile(0.995))
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative sample should clamp to 0")
	}
}

func TestExactQuantile(t *testing.T) {
	e := &Exact{}
	for i := int64(1); i <= 100; i++ {
		e.Record(i)
	}
	if got := e.Quantile(0.99); got != 99 {
		t.Fatalf("exact p99 = %d, want 99", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Fatalf("exact p0 = %d, want 1", got)
	}
	if got := e.Quantile(1); got != 100 {
		t.Fatalf("exact p100 = %d, want 100", got)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456, 1 << 40} {
		idx := h.bucketIndex(v)
		lo, hi := h.bucketLow(idx), h.bucketHigh(idx)
		if v < lo || v > hi {
			t.Errorf("value %d not in bucket [%d,%d] (idx %d)", v, lo, hi, idx)
		}
	}
}

// fullRange returns an empty histogram whose buckets are allocated over
// the whole range up front: the reference a lazily grown one must match.
func fullRange() *Histogram {
	h := NewHistogram()
	h.counts = make([]uint64, h.numBuckets)
	return h
}

type bucket struct {
	lo, hi int64
	n      uint64
}

func buckets(h *Histogram) []bucket {
	var out []bucket
	h.ForEachBucket(func(lo, hi int64, n uint64) bool {
		out = append(out, bucket{lo, hi, n})
		return true
	})
	return out
}

// sameHistogram fails t unless lazy and ref answer every query alike.
func sameHistogram(t *testing.T, what string, lazy, ref *Histogram) {
	t.Helper()
	if lazy.Count() != ref.Count() || lazy.Min() != ref.Min() || lazy.Max() != ref.Max() ||
		lazy.Mean() != ref.Mean() {
		t.Fatalf("%s: count/min/max/mean = %d/%d/%d/%v, want %d/%d/%d/%v", what,
			lazy.Count(), lazy.Min(), lazy.Max(), lazy.Mean(), ref.Count(), ref.Min(), ref.Max(), ref.Mean())
	}
	for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1} {
		if got, want := lazy.Quantile(q), ref.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, want %d", what, q, got, want)
		}
	}
	got, want := buckets(lazy), buckets(ref)
	if len(got) != len(want) {
		t.Fatalf("%s: %d non-empty buckets, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bucket %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
	if len(lazy.counts)%lazy.subCount != 0 {
		t.Fatalf("%s: %d buckets allocated, not whole octaves", what, len(lazy.counts))
	}
}

// TestHistogramGrowthMatchesFullRange checks that growing the bucket array
// on demand changes no answer: random sample sets spanning a few to all
// octaves — up to the largest int64 — recorded singly and
// in batches, merged in both directions between histograms of different
// extents, and recorded again after Reset.
func TestHistogramGrowthMatchesFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func(maxExp float64) int64 {
		switch rng.Intn(20) {
		case 0:
			return -rng.Int63n(100) // clamped to zero
		case 1:
			if maxExp >= 62 {
				return math.MaxInt64 - rng.Int63n(1<<40) // the highest buckets
			}
		}
		return int64(math.Exp2(rng.Float64() * maxExp))
	}
	fill := func(lazy, ref *Histogram, n int, maxExp float64) {
		for i := 0; i < n; i++ {
			v := draw(maxExp)
			if rng.Intn(4) == 0 {
				k := uint64(1 + rng.Intn(5))
				lazy.RecordN(v, k)
				ref.RecordN(v, k)
				continue
			}
			lazy.Record(v)
			ref.Record(v)
		}
	}
	for trial, maxExp := range []float64{3, 6, 7, 12, 20, 30, 45, 62, 63} {
		a, refA := NewHistogram(), fullRange()
		b, refB := NewHistogram(), fullRange()
		fill(a, refA, 1+rng.Intn(2000), maxExp)
		fill(b, refB, 1+rng.Intn(2000), 1+rng.Float64()*maxExp)
		sameHistogram(t, fmt.Sprintf("trial %d a", trial), a, refA)
		sameHistogram(t, fmt.Sprintf("trial %d b", trial), b, refB)

		// Merge both ways, into copies so each direction starts fresh.
		ab, refAB := NewHistogram(), fullRange()
		ab.Merge(a)
		refAB.Merge(refA)
		ab.Merge(b)
		refAB.Merge(refB)
		sameHistogram(t, fmt.Sprintf("trial %d a+b", trial), ab, refAB)
		ba, refBA := NewHistogram(), fullRange()
		ba.Merge(b)
		refBA.Merge(refB)
		ba.Merge(a)
		refBA.Merge(refA)
		sameHistogram(t, fmt.Sprintf("trial %d b+a", trial), ba, refBA)
		b.Merge(a)
		refB.Merge(refA)
		sameHistogram(t, fmt.Sprintf("trial %d b.Merge(a)", trial), b, refB)
		// A lazy histogram and a full-range one merge into each other.
		empty := NewHistogram()
		empty.Merge(refA)
		sameHistogram(t, fmt.Sprintf("trial %d lazy.Merge(full)", trial), empty, refA)
		full := fullRange()
		full.Merge(a)
		sameHistogram(t, fmt.Sprintf("trial %d full.Merge(lazy)", trial), full, refA)

		a.Reset()
		refA.Reset()
		sameHistogram(t, fmt.Sprintf("trial %d reset", trial), a, refA)
		fill(a, refA, 1+rng.Intn(500), 1+rng.Float64()*maxExp)
		sameHistogram(t, fmt.Sprintf("trial %d refill", trial), a, refA)
	}

	// Allocation tracks the highest bucket recorded, octave by octave:
	// microsecond-scale samples touch a few octaves, and the largest int64
	// reaches the last octave the bucket range holds.
	h := NewHistogram()
	for _, v := range []int64{5000, 70000, 3, math.MaxInt64} {
		h.Record(v)
		if got, want := len(h.counts), (h.bucketIndex(h.Max())/h.subCount+1)*h.subCount; got != want {
			t.Fatalf("after sample %d: %d buckets, want %d", v, got, want)
		}
	}
	if len(h.counts) > h.numBuckets {
		t.Fatalf("%d buckets exceed the range's %d", len(h.counts), h.numBuckets)
	}
}

func TestBar(t *testing.T) {
	if Bar(5, 10, 10) != "#####" {
		t.Fatalf("Bar = %q", Bar(5, 10, 10))
	}
	if Bar(20, 10, 10) != "##########" {
		t.Fatal("Bar should clamp")
	}
	if Bar(0, 10, 10) != "" || Bar(5, 0, 10) != "" {
		t.Fatal("degenerate bars should be empty")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000000 + 1))
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Record(rng.Int63n(1 << 30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}
