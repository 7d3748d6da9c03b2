package metrics

// Running is an exact running summary of a sampled quantity: how many
// samples, their sum and their largest value. It keeps no samples, so it
// costs the same on a run of any length. The zero value is empty.
type Running struct {
	n        int64
	sum, max float64
}

// Record adds one sample.
func (r *Running) Record(v float64) {
	if r.n == 0 || v > r.max {
		r.max = v
	}
	r.n++
	r.sum += v
}

// Count returns the number of samples recorded.
func (r *Running) Count() int64 { return r.n }

// MeanValue returns the mean of every sample, or 0 when empty.
func (r *Running) MeanValue() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// MaxValue returns the largest sample, or 0 when empty.
func (r *Running) MaxValue() float64 { return r.max }

// Merge adds o's samples to r, as if each had been recorded into r.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 || o.max > r.max {
		r.max = o.max
	}
	r.n += o.n
	r.sum += o.sum
}
