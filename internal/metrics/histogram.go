// Package metrics provides the small measurement structures the
// experiment harness uses beyond plain counters: a log-bucketed duration
// histogram for request-latency percentiles.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Histogram is a log-bucketed histogram of durations. Buckets grow
// geometrically (factor 2^(1/4) ≈ 19 % per bucket) from 1 µs, giving
// better-than-±10 % percentile resolution over nanoseconds-to-hours with a
// few hundred buckets and O(1) recording.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
	// cum caches the cumulative bucket counts so a burst of percentile
	// queries (Summary's four, the host scheduler's per-report quantile
	// block) costs one binary search each instead of a fresh bucket scan.
	// Record invalidates; refresh rebuilds lazily.
	cum   []uint64
	dirty bool
}

const (
	histBase         = time.Microsecond
	bucketsPerOctave = 4
	histBuckets      = 44 * bucketsPerOctave // covers up to ~2^44 µs ≈ 200 days
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, histBuckets),
		cum:    make([]uint64, histBuckets),
		min:    math.MaxInt64,
	}
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < histBase {
		return 0
	}
	// log2(d/base) * bucketsPerOctave
	idx := int(math.Log2(float64(d)/float64(histBase)) * bucketsPerOctave)
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketLow returns the lower bound of bucket i.
func bucketLow(i int) time.Duration {
	return time.Duration(float64(histBase) * math.Pow(2, float64(i)/bucketsPerOctave))
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	h.dirty = true
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Merge folds other's observations into h bucket-by-bucket. Percentiles
// of the merged histogram are identical to recording both observation
// streams into one histogram. The sharded server uses it to aggregate
// per-shard engine reports into one fleet view.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	h.dirty = true
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Percentile returns the value at or below which the given fraction of
// observations fall (p in [0,1]); resolution is the bucket width (±~10 %).
// It returns 0 when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 1 {
		return h.max
	}
	target := uint64(p * float64(h.total))
	if target == 0 {
		target = 1
	}
	h.refresh()
	i := sort.Search(len(h.cum), func(i int) bool { return h.cum[i] >= target })
	if i == len(h.cum) {
		return h.max
	}
	// Report the bucket's geometric center, clamped to extremes.
	v := time.Duration(float64(bucketLow(i)) * math.Pow(2, 0.5/bucketsPerOctave))
	if v > h.max {
		v = h.max
	}
	if v < h.min {
		v = h.min
	}
	return v
}

// refresh rebuilds the cumulative-count cache after recordings. The cum
// slice is non-decreasing, which is what lets Percentile binary-search it.
func (h *Histogram) refresh() {
	if !h.dirty {
		return
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		h.cum[i] = seen
	}
	h.dirty = false
}

// Summary is the fixed set of distribution statistics reports print.
type Summary struct {
	Count                     uint64
	Mean, P50, P95, P99, P999 time.Duration
	Max                       time.Duration
}

// Summary computes the report statistics.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   h.Percentile(0.50),
		P95:   h.Percentile(0.95),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
		Max:   h.Max(),
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, h.Mean(), h.Percentile(0.50), h.Percentile(0.99), h.max)
}
