// Package stats provides the measurement primitives used throughout the
// simulator: a log-bucketed latency histogram with quantile queries, a
// windowed rate meter, and streaming mean/variance accumulators.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Histogram records non-negative int64 samples (typically nanoseconds) in
// logarithmically spaced buckets, HdrHistogram-style. With 64 sub-buckets
// per octave the relative quantile error is bounded by 1/64 ≈ 1.6%, which is
// far below the run-to-run noise of the experiments it serves. The bucket
// array grows in whole octaves up to the highest bucket recorded, so a
// histogram of nanosecond samples up to a millisecond allocates 15 of the
// 64 octaves its range spans.
//
// The zero value is NOT ready to use; call NewHistogram.
type Histogram struct {
	counts     []uint64 // buckets [0, len); len is a multiple of subCount
	total      uint64
	sum        float64
	min        int64
	max        int64
	subBits    uint // log2(sub-buckets per octave)
	subCount   int
	numBuckets int
}

const defaultSubBits = 6 // 64 sub-buckets/octave

// NewHistogram returns an empty histogram covering [0, 2^62).
func NewHistogram() *Histogram {
	return &Histogram{
		subBits:  defaultSubBits,
		subCount: 1 << defaultSubBits,
		min:      math.MaxInt64,
		// Octaves 0..62, each with subCount sub-buckets, plus the dense
		// [0, subCount) range mapped directly.
		numBuckets: 64 << defaultSubBits,
	}
}

// grow extends counts with zeroed buckets, whole octaves at a time, until
// bucket idx exists.
func (h *Histogram) grow(idx int) {
	n := (idx/h.subCount + 1) * h.subCount
	h.counts = append(h.counts, make([]uint64, n-len(h.counts))...)
}

// bucketIndex maps a value to its bucket.
func (h *Histogram) bucketIndex(v int64) int {
	if v < int64(h.subCount) {
		return int(v)
	}
	// Position of highest set bit.
	exp := 63 - leadingZeros(uint64(v))
	// Shift so the value fits in [subCount, 2*subCount).
	shift := exp - int(h.subBits)
	sub := int(v>>uint(shift)) - h.subCount // 0..subCount-1
	idx := (shift+1)*h.subCount + sub
	if idx >= h.numBuckets {
		return h.numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx.
func (h *Histogram) bucketLow(idx int) int64 {
	if idx < h.subCount {
		return int64(idx)
	}
	shift := idx/h.subCount - 1
	sub := idx % h.subCount
	return int64(h.subCount+sub) << uint(shift)
}

// bucketHigh returns the largest value mapping to bucket idx.
func (h *Histogram) bucketHigh(idx int) int64 {
	if idx < h.subCount {
		return int64(idx)
	}
	shift := idx/h.subCount - 1
	next := int64(h.subCount+idx%h.subCount+1) << uint(shift)
	return next - 1
}

func leadingZeros(x uint64) int {
	return bits.LeadingZeros64(x)
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	i := h.bucketIndex(v)
	if i >= len(h.counts) {
		h.grow(i)
	}
	h.counts[i]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds n identical samples.
func (h *Histogram) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	i := h.bucketIndex(v)
	if i >= len(h.counts) {
		h.grow(i)
	}
	h.counts[i] += n
	h.total += n
	h.sum += float64(v) * float64(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of samples, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded sample, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1).
// For q=0 it returns Min; for q=1, Max. The estimate is the high edge of
// the bucket containing the target rank, clamped to [Min, Max], so it never
// under-reports a tail latency by more than one bucket width.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := h.bucketHigh(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// P50, P99 and P999 are convenience accessors for common quantiles.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// Reset forgets all samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.subBits != h.subBits {
		panic("stats: merging histograms with different precision")
	}
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts) - 1)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// ForEachBucket calls fn for every non-empty bucket in ascending value
// order with the bucket's inclusive value range [lo, hi] and its count,
// stopping early when fn returns false. It allocates nothing, so telemetry
// can snapshot a distribution per window without copying the counts array.
func (h *Histogram) ForEachBucket(fn func(lo, hi int64, count uint64) bool) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if !fn(h.bucketLow(i), h.bucketHigh(i), c) {
			return
		}
	}
}

// String summarizes the distribution for debugging.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d mean=%.1f p50=%d p99=%d max=%d}",
		h.total, h.Mean(), h.P50(), h.P99(), h.Max())
}

// Exact is a helper that computes exact quantiles from raw samples; used by
// tests to bound the histogram's approximation error and by small-sample
// experiment paths where exactness is cheap.
type Exact struct {
	samples []int64
	sorted  bool
}

// Record adds a sample.
func (e *Exact) Record(v int64) {
	e.samples = append(e.samples, v)
	e.sorted = false
}

// Count returns the number of samples.
func (e *Exact) Count() int { return len(e.samples) }

// Quantile returns the exact q-quantile using the nearest-rank method.
func (e *Exact) Quantile(q float64) int64 {
	if len(e.samples) == 0 {
		return 0
	}
	if !e.sorted {
		sort.Slice(e.samples, func(i, j int) bool { return e.samples[i] < e.samples[j] })
		e.sorted = true
	}
	if q <= 0 {
		return e.samples[0]
	}
	rank := int(math.Ceil(q*float64(len(e.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(e.samples) {
		rank = len(e.samples) - 1
	}
	return e.samples[rank]
}

// Bar renders a crude ASCII bar of width n for value v relative to max.
// Shared by the CLI table printers.
func Bar(v, max float64, n int) string {
	if max <= 0 || v <= 0 || n <= 0 {
		return ""
	}
	k := int(v / max * float64(n))
	if k > n {
		k = n
	}
	return strings.Repeat("#", k)
}
