package ftl

import (
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/nand"
)

// Lifetime is one FTL's wiring of the lifetime subsystem: the longevity
// predictor that steers placement (nil when longevity-aware placement is
// off) and the erase-depth policy's label for stats.
type Lifetime struct {
	Pred   *lifetime.Predictor
	policy string
}

// NewLifetime installs policy (when non-nil) as man's erase-depth hook and,
// with placement on, builds a predictor over logicalPages pages.
func NewLifetime(dev *nand.Device, man *Manager, policy lifetime.ErasePolicy, placement bool, logicalPages int64) (Lifetime, error) {
	var lt Lifetime
	if policy != nil {
		man.SetEraseDepth(lifetime.DepthFn(dev, policy))
		lt.policy = policy.Name()
	}
	if placement {
		pred, err := lifetime.NewPredictor(logicalPages, lifetime.PredictorConfig{})
		if err != nil {
			return lt, err
		}
		lt.Pred = pred
	}
	return lt, nil
}

// Observe records a host write of [lsn, lsn+sectors): one observation per
// logical page the request touches, at write time — the predictor models
// host update intervals, so neither buffering nor placement may come first.
func (lt *Lifetime) Observe(lsn int64, sectors, pageSecs int) {
	if lt.Pred == nil {
		return
	}
	ps := int64(pageSecs)
	for lpn, last := lsn/ps, (lsn+int64(sectors)-1)/ps; lpn <= last; lpn++ {
		lt.Pred.Observe(lpn)
	}
}

// Reset clears the predictor after a mount: its tables are RAM-only and
// restart cold.
func (lt *Lifetime) Reset() {
	if lt.Pred != nil {
		lt.Pred.Reset()
	}
}

// TallyClass counts one placement verdict and reports whether it was cold.
func (s *Stats) TallyClass(c lifetime.Class) bool {
	switch c {
	case lifetime.ClassCold:
		s.LifetimeColdWrites++
		return true
	case lifetime.ClassHot:
		s.LifetimeHotWrites++
	default:
		s.LifetimeUnknownWrites++
	}
	return false
}

// Snapshot completes a copy of an FTL's running counters with the fields
// read off shared state at Stats() time: the collectors' counters (summed;
// the first names the policy), bad-block and wear figures, the lifetime
// labels and the device counters.
func (m *Manager) Snapshot(s Stats, lt *Lifetime, cols ...*gc.Collector) Stats {
	for _, c := range cols {
		s.GCSteps += c.Steps()
		s.GCPagesCopied += c.PagesCopied()
		s.GCPreemptions += c.Preemptions()
	}
	s.GCPolicy = cols[0].PolicyName()
	s.SectorBytes = int64(m.dev.Geometry().SubpageBytes)
	s.GrownBadBlocks = int64(m.bad)
	s.ErasePolicy = lt.policy
	if lt.Pred != nil {
		s.LifetimeObserves = lt.Pred.Observes()
	}
	s.Wear = m.WearDist()
	s.Device = m.dev.Counters()
	return s
}
