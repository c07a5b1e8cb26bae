package stats

import "testing"

// TestRecordPathsAllocationFree pins the hot record paths — the ones called
// once per packet or once per monitor tick during a run — at zero
// allocations, so a stats change can't silently reintroduce per-packet
// garbage into the simulator's hot loop. (Exact.Record is excluded: it
// appends by design and is only used by bounded, off-hot-path collectors.)
func TestRecordPathsAllocationFree(t *testing.T) {
	h := NewHistogram()
	// Warm up so lazily sized internals (histogram buckets) exist.
	h.Record(12345)
	h.RecordN(99, 3)

	// Merge source and ForEachBucket callback are prebound so the pins
	// measure the methods themselves, not test-harness captures.
	src := NewHistogram()
	src.Record(42)
	src.RecordN(1<<20, 5)
	var bucketSum uint64
	visit := func(lo, hi int64, count uint64) bool {
		bucketSum += count
		return true
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Histogram.Record", func() { h.Record(987654) }},
		{"Histogram.RecordN", func() { h.RecordN(321, 7) }},
		{"Histogram.Quantile", func() { _ = h.Quantile(0.99) }},
		{"Histogram.Merge", func() { h.Merge(src) }},
		{"Histogram.ForEachBucket", func() { h.ForEachBucket(visit) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("%s allocates %v per call, want 0", c.name, avg)
		}
	}
}
