package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"espftl/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not zeroed: %v", h)
	}
	if h.Percentile(0.5) != 0 {
		t.Fatal("empty percentile non-zero")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Record(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != time.Millisecond || h.Max() != 3*time.Millisecond {
		t.Fatalf("extremes: %v %v", h.Min(), h.Max())
	}
	p50 := h.Percentile(0.5)
	if p50 < time.Millisecond || p50 > 3*time.Millisecond {
		t.Fatalf("p50 = %v outside observed range", p50)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-time.Second)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative record: min=%v count=%d", h.Min(), h.Count())
	}
}

func TestHistogramEdgesPercentile(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * time.Millisecond)
	if h.Percentile(0) != 5*time.Millisecond || h.Percentile(1) != 5*time.Millisecond {
		t.Fatalf("single-value percentiles: %v %v", h.Percentile(0), h.Percentile(1))
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	if s := h.Summary(); s != (Summary{}) {
		t.Fatalf("empty Summary = %+v, want zeros", s)
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if s.P50 != h.Percentile(0.50) || s.P95 != h.Percentile(0.95) ||
		s.P99 != h.Percentile(0.99) || s.P999 != h.Percentile(0.999) {
		t.Error("Summary percentiles disagree with Percentile")
	}
	// Bucket resolution is ~19 %, so neighbouring percentiles may tie;
	// monotonicity is non-strict.
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Errorf("percentiles not monotone: %+v", s)
	}
	if s.P50 >= s.P95 {
		t.Errorf("P50 %v should fall well below P95 %v for a uniform ramp", s.P50, s.P95)
	}
	if s.Max != time.Millisecond {
		t.Errorf("Max = %v, want 1ms", s.Max)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(time.Millisecond)
	s := h.String()
	if s == "" {
		t.Fatal("empty String")
	}
}

// Property: percentiles are within ~±20% of the exact empirical quantiles
// for arbitrary data in the supported range, and are monotone in p.
func TestHistogramAccuracyProperty(t *testing.T) {
	f := func(seed uint16, n uint8) bool {
		rng := sim.NewRNG(uint64(seed) + 1)
		count := int(n)%200 + 20
		h := NewHistogram()
		var xs []time.Duration
		for i := 0; i < count; i++ {
			// Spread over ~5 decades.
			d := time.Duration(rng.Int63n(int64(10*time.Second))) + time.Microsecond
			xs = append(xs, d)
			h.Record(d)
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		prev := time.Duration(0)
		for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
			got := h.Percentile(p)
			if got < prev {
				return false // not monotone
			}
			prev = got
			idx := int(p*float64(count)) - 1
			if idx < 0 {
				idx = 0
			}
			exact := xs[idx]
			ratio := float64(got) / float64(exact)
			if ratio < 0.7 || ratio > 1.45 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean matches the true mean exactly (it is tracked, not
// bucketed), and Count/extremes always agree with the data.
func TestHistogramExactAggregatesProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram()
		var sum time.Duration
		min := time.Duration(math.MaxInt64)
		max := time.Duration(0)
		for _, v := range raw {
			d := time.Duration(v)
			h.Record(d)
			sum += d
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		if len(raw) == 0 {
			return h.Count() == 0
		}
		return h.Count() == uint64(len(raw)) &&
			h.Mean() == sum/time.Duration(len(raw)) &&
			h.Min() == min && h.Max() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramCacheInvalidation interleaves recordings with percentile
// queries and checks each answer against a reference linear scan — the
// cumulative-count cache must never serve a stale snapshot.
func TestHistogramCacheInvalidation(t *testing.T) {
	// referencePercentile recomputes the percentile the pre-cache way.
	referencePercentile := func(h *Histogram, p float64) time.Duration {
		if h.total == 0 {
			return 0
		}
		if p <= 0 {
			return h.Min()
		}
		if p >= 1 {
			return h.Max()
		}
		target := uint64(p * float64(h.total))
		if target == 0 {
			target = 1
		}
		var seen uint64
		for i, c := range h.counts {
			seen += c
			if seen >= target {
				v := time.Duration(float64(bucketLow(i)) * math.Pow(2, 0.5/bucketsPerOctave))
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

	h := NewHistogram()
	rng := uint64(42)
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		h.Record(time.Duration(rng % uint64(10*time.Millisecond)))
		if i%7 != 0 {
			continue
		}
		for _, p := range []float64{0.01, 0.5, 0.95, 0.99, 0.999} {
			if got, want := h.Percentile(p), referencePercentile(h, p); got != want {
				t.Fatalf("after %d records, p%.3f: cached %v, reference %v", i+1, p, got, want)
			}
		}
	}
	// A burst of queries with no intervening Record hits the warm cache.
	s1, s2 := h.Summary(), h.Summary()
	if s1 != s2 {
		t.Fatalf("summaries diverge on warm cache: %+v vs %+v", s1, s2)
	}
}

// refBucketOf is bucketOf as it was before the lookup tables: the
// floating-point logarithm on every record.
func refBucketOf(d time.Duration) int {
	if d < histBase {
		return 0
	}
	idx := int(math.Log2(float64(d)/float64(histBase)) * bucketsPerOctave)
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// The table lookup puts every duration in the bucket the logarithm does:
// within 1000 ns of every bucket and octave boundary, and over 10^7
// durations spread log-uniformly across the whole int64 range. The octave
// table leaves at most four boundaries to step over.
func TestBucketOfMatchesLog(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := bucketOf(d), refBucketOf(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, logarithm says %d", d, got, want)
		}
	}
	var edges []time.Duration
	for i := 1; i < histBuckets; i++ {
		edges = append(edges, bucketStart[i])
	}
	for k := 1; k < 63; k++ {
		edges = append(edges, time.Duration(1)<<k)
	}
	edges = append(edges, math.MaxInt64-1000)
	for _, e := range edges {
		for d := e - 1000; d <= e+1000 && d >= e-1000; d++ { // d++ wraps past MaxInt64
			check(d)
		}
	}
	rng := sim.NewRNG(7)
	for range 10_000_000 {
		shift := rng.Int63n(63)
		check(time.Duration(rng.Uint64() >> 1 >> shift))
	}
	for k := 10; k < len(octaveBucket); k++ {
		last := refBucketOf(time.Duration(1)<<k - 1)
		if k == 63 {
			last = refBucketOf(math.MaxInt64)
		}
		if steps := last - int(octaveBucket[k]); steps > 4 {
			t.Errorf("bit length %d spans %d bucket boundaries", k, steps)
		}
	}
}
