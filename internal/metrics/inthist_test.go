package metrics

import "testing"

func TestIntHistogramCounts(t *testing.T) {
	h := NewIntHistogram(4)
	for _, v := range []int{0, 0, 1, 2, 3, 7, -2} {
		h.Record(v)
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d, want 7", h.Count())
	}
	if q := h.Quantile(3.0 / 7); q != 0 { // two zeros plus the clamped -2
		t.Errorf("Quantile(3/7) = %d, want 0", q)
	}
	if h.Max() != 7 {
		t.Errorf("Max = %d, want 7", h.Max())
	}
	if h.Mean() != 13.0/7 {
		t.Errorf("Mean = %v, want 13/7", h.Mean())
	}
}

// Exact small-sample quantiles: nearest-rank over a known multiset.
func TestIntHistogramQuantileExact(t *testing.T) {
	h := NewIntHistogram(16)
	for _, v := range []int{1, 2, 2, 3, 5, 5, 5, 8, 9, 10} {
		h.Record(v)
	}
	for _, tc := range []struct {
		p    float64
		want int
	}{
		{0, 1},     // rank clamps to 1 → smallest value
		{0.10, 1},  // rank 1
		{0.25, 2},  // rank 3 (ceil(2.5))
		{0.50, 5},  // rank 5
		{0.70, 5},  // rank 7
		{0.80, 8},  // rank 8
		{0.90, 9},  // rank 9
		{0.99, 10}, // rank 10 (ceil(9.9))
		{1.00, 10}, // rank 10
	} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("Quantile(%.2f) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestIntHistogramQuantileOverflowAndEmpty(t *testing.T) {
	if got := NewIntHistogram(4).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	h := NewIntHistogram(2) // exact buckets 0,1; overflow at 2+
	h.Record(0)
	h.Record(50)
	h.Record(90)
	if got := h.Quantile(1); got != 90 {
		t.Errorf("Quantile(1) = %d, want the true max 90", got)
	}
	if got := h.Quantile(0.67); got != 90 {
		t.Errorf("Quantile(0.67) = %d, want 90 (overflow bucket reports max)", got)
	}
	if got := h.Quantile(0.33); got != 0 {
		t.Errorf("Quantile(0.33) = %d, want 0", got)
	}
}
