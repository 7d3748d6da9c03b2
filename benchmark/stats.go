package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// The benchmark keeps its own raw samples and sorts them, so no number it
// reports passes through metrics.Histogram, whose buckets are 19 % wide.

// percentile returns the nearest-rank p-quantile (p in [0,1]) of an
// ascending slice; 0 when empty.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const tailBeyond = 10

// tailPercentile returns the highest percentile of the ladder 50, 90, 99,
// 99.9, 99.99, 99.999 that still has at least tailBeyond samples beyond
// it, and the value there. With fewer than 2*tailBeyond samples even the
// median does not qualify and pct is 0.
func tailPercentile(sorted []int64) (pct float64, v int64) {
	n := len(sorted)
	for _, p := range []float64{0.99999, 0.9999, 0.999, 0.99, 0.90, 0.50} {
		rank := int(math.Ceil(p * float64(n))) // 1-based rank of the quantile
		if n-rank >= tailBeyond {
			return p * 100, sorted[rank-1]
		}
	}
	return 0, 0
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 when empty. The input is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(values, n=4) uses, which is what the
// acceptance rule is stated in. Fewer than two values have no spread.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Rank k*(n+1)/4, 1-based, interpolated between its neighbours;
		// the rank is clamped first and the remainder taken after, so the
		// ends extrapolate exactly as Python's do.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// number the acceptance rule compares with a metric's bound.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return math.Abs((q3 - q1) / m)
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// digest hashes the simulated outcome of a run — counters, drain time,
// completions — so two runs, two repetitions or two commits can be
// compared for model identity without the benchmark pinning any value.
type digest struct{ h uint64 }

func newDigest() *digest {
	return &digest{h: 14695981039346656037}
}

func (d *digest) add(vals ...int64) {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], d.h)
	h.Write(b[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	d.h = h.Sum64()
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h) }
