package metrics

import (
	"fmt"
	"math"
	"strings"
)

// IntHistogram counts small non-negative integer observations exactly —
// e.g. read-retry steps per read, where the value range is the retry
// budget. Values at or beyond the bucket count collapse into the last
// (overflow) bucket; Max still reports the true maximum.
type IntHistogram struct {
	counts []uint64
	total  uint64
	sum    uint64
	max    int
}

// NewIntHistogram returns an empty histogram with exact buckets for
// values 0..buckets-1 plus one overflow bucket.
func NewIntHistogram(buckets int) *IntHistogram {
	if buckets < 1 {
		buckets = 1
	}
	return &IntHistogram{counts: make([]uint64, buckets+1)}
}

// Record adds one observation. Negative values clamp to zero.
func (h *IntHistogram) Record(v int) {
	if v < 0 {
		v = 0
	}
	i := v
	if i >= len(h.counts)-1 {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *IntHistogram) Count() uint64 { return h.total }

// Merge adds o's observations to h. Both must have the same bucket count.
func (h *IntHistogram) Merge(o *IntHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// Mean returns the arithmetic mean, or 0 when empty.
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observation (0 when empty).
func (h *IntHistogram) Max() int { return h.max }

// Quantile returns the nearest-rank quantile (p in [0,1]). Values below
// the overflow bucket are exact; a rank landing in the overflow bucket
// reports the true maximum. It returns 0 when empty.
func (h *IntHistogram) Quantile(p float64) int {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var seen uint64
	for v, c := range h.counts {
		seen += c
		if seen >= rank {
			if v == len(h.counts)-1 {
				return h.max
			}
			return v
		}
	}
	return h.max
}

// String renders the non-empty buckets.
func (h *IntHistogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.3f max=%d", h.total, h.Mean(), h.max)
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		if v == len(h.counts)-1 {
			fmt.Fprintf(&b, " [%d+]=%d", v, c)
		} else {
			fmt.Fprintf(&b, " [%d]=%d", v, c)
		}
	}
	return b.String()
}
