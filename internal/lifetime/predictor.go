package lifetime

import "fmt"

// Class is the predicted longevity of a logical page's current data.
type Class uint8

const (
	// ClassUnknown: not enough history to predict (cold-start, or a page
	// between the hot and cold thresholds). Callers fall back to
	// size-based routing.
	ClassUnknown Class = iota
	// ClassHot: the page is predicted to be rewritten soon; its data is
	// short-lived.
	ClassHot
	// ClassCold: the page is predicted to stay untouched for a long time;
	// its data is long-lived.
	ClassCold
	// ClassNone: no longevity verdict at all, SizeRouted's only answer.
	// The write goes where its size sends it and no verdict is tallied.
	ClassNone
)

// String names the class for experiment tables.
func (c Class) String() string {
	switch c {
	case ClassHot:
		return "hot"
	case ClassCold:
		return "cold"
	case ClassNone:
		return "none"
	}
	return "unknown"
}

// Placement decides where host data lands by its predicted lifetime: the
// FTLs observe every host write of a logical page and consult Class before
// placing one. It is the FTL-side twin of ErasePolicy.
type Placement interface {
	// Observe records one host write of logical page lpn.
	Observe(lpn int64)
	// Class predicts the longevity of page lpn's current data.
	Class(lpn int64) Class
	// Reset drops all prediction state, as a mount does.
	Reset()
	// Observes returns how many page writes have been observed.
	Observes() int64
	// ColdStripe reports whether the page-append log needs a stripe for
	// predicted-cold data.
	ColdStripe() bool
}

// SizeRouted is the paper's placement (§4.1): no prediction state, every
// write lands where its request size sends it.
type SizeRouted struct{}

// Observe, Class, Reset, Observes and ColdStripe implement Placement.
func (SizeRouted) Observe(int64)     {}
func (SizeRouted) Class(int64) Class { return ClassNone }
func (SizeRouted) Reset()            {}
func (SizeRouted) Observes() int64   { return 0 }
func (SizeRouted) ColdStripe() bool  { return false }

// NewPlacement returns the longevity predictor over pages logical pages
// when predict is set, else SizeRouted.
func NewPlacement(predict bool, pages int64) (Placement, error) {
	if !predict {
		return SizeRouted{}, nil
	}
	return NewPredictor(pages)
}

// ObserveWrite records a host write of [lsn, lsn+sectors) with p: one
// observation per logical page of pageSecs sectors the request touches, at
// write time — the predictor models host update intervals, so neither
// buffering nor placement may come first.
func ObserveWrite(p Placement, lsn int64, sectors, pageSecs int) {
	ps := int64(pageSecs)
	for lpn, last := lsn/ps, (lsn+int64(sectors)-1)/ps; lpn <= last; lpn++ {
		p.Observe(lpn)
	}
}

// The predictor's envelope, fixed at this repository's operating point. A
// page whose predicted rewrite interval is under predHotFrac passes of the
// logical space (in page-writes) is hot, over predColdFrac passes is cold,
// in between unknown: data not refreshed within two full passes of the
// logical space is long-lived for placement purposes.
const (
	// predAlpha is the EWMA weight of the newest observed interval.
	predAlpha    = 0.5
	predHotFrac  = 1.0
	predColdFrac = 2.0
	// predMinSamples is how many observations a page needs before its
	// EWMA is trusted (a long-silent page classifies cold on staleness
	// alone earlier).
	predMinSamples = 2
)

// Predictor estimates per-logical-page update intervals with a bounded-
// memory EWMA (Choi & Jung, arXiv 1704.05138): three flat arrays over the
// logical page space, an O(1) zero-allocation update per write, and no
// persistence — the tables are RAM-only prediction state (like the
// subFTL's hot/cold GC bits) and restart cold after Recover.
//
// Time is the predictor's own logical write clock (one tick per observed
// page write), not virtual device time: saturated closed-loop workloads
// barely advance the virtual clock, while write-count intervals measure
// exactly the quantity placement cares about — how much other data lands
// between two updates of the same page.
type Predictor struct {
	hotThresh, coldThresh float64
	lastOp                []int64   // write-clock stamp of the last observation; 0 = never
	ewma                  []float64 // predicted rewrite interval, in page-writes
	samples               []uint8   // observation count, saturating
	op                    int64     // logical write clock
	observes              int64
}

// NewPredictor builds a predictor over a logical space of pages pages.
func NewPredictor(pages int64) (*Predictor, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("lifetime: predictor over %d pages", pages)
	}
	return &Predictor{
		hotThresh:  predHotFrac * float64(pages),
		coldThresh: predColdFrac * float64(pages),
		lastOp:     make([]int64, pages),
		ewma:       make([]float64, pages),
		samples:    make([]uint8, pages),
	}, nil
}

// Pages returns the tracked logical page count.
func (p *Predictor) Pages() int64 { return int64(len(p.lastOp)) }

// Observes returns how many page writes the predictor has seen.
func (p *Predictor) Observes() int64 { return p.observes }

// ColdStripe implements Placement: predicted-cold pages get their own
// stripe.
func (p *Predictor) ColdStripe() bool { return true }

// Observe records one write of page lpn and advances the write clock.
// O(1), allocation-free (guarded by TestPredictorObserveAllocs).
func (p *Predictor) Observe(lpn int64) {
	p.op++
	p.observes++
	last := p.lastOp[lpn]
	p.lastOp[lpn] = p.op
	n := p.samples[lpn]
	if n == 0 {
		p.samples[lpn] = 1
		return
	}
	iv := float64(p.op - last)
	if n == 1 {
		p.ewma[lpn] = iv
	} else {
		p.ewma[lpn] += predAlpha * (iv - p.ewma[lpn])
	}
	if n < ^uint8(0) {
		p.samples[lpn] = n + 1
	}
}

// Class predicts the longevity of page lpn's current data. Staleness
// overrides the EWMA in both directions: a page silent for longer than its
// predicted interval is at least that old, so the effective prediction is
// max(EWMA, time since last write).
func (p *Predictor) Class(lpn int64) Class {
	n := p.samples[lpn]
	if n == 0 {
		return ClassUnknown
	}
	sinceLast := float64(p.op - p.lastOp[lpn])
	if n < predMinSamples {
		if sinceLast >= p.coldThresh {
			return ClassCold
		}
		return ClassUnknown
	}
	predicted := p.ewma[lpn]
	if sinceLast > predicted {
		predicted = sinceLast
	}
	if predicted <= p.hotThresh {
		return ClassHot
	}
	if predicted >= p.coldThresh {
		return ClassCold
	}
	return ClassUnknown
}

// Reset clears all prediction state, as a mount-time Recover does: the
// tables are RAM-only and restart cold.
func (p *Predictor) Reset() {
	for i := range p.lastOp {
		p.lastOp[i] = 0
		p.ewma[i] = 0
		p.samples[i] = 0
	}
	p.op = 0
	p.observes = 0
}
