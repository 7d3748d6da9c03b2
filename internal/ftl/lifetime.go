package ftl

import (
	"espftl/internal/gc"
	"espftl/internal/lifetime"
)

// TallyClass counts one placement verdict and reports whether it was cold.
// ClassNone, the size-routed placement's answer, is no verdict and counts
// nothing.
func (s *Stats) TallyClass(c lifetime.Class) bool {
	switch c {
	case lifetime.ClassCold:
		s.LifetimeColdWrites++
		return true
	case lifetime.ClassHot:
		s.LifetimeHotWrites++
	case lifetime.ClassUnknown:
		s.LifetimeUnknownWrites++
	}
	return false
}

// Snapshot completes a copy of an FTL's running counters with the fields
// read off shared state at Stats() time: the collectors' counters (summed;
// the first names the policy), bad-block and wear figures, the erase
// policy's name, the placement's observation count and the device counters.
func (m *Manager) Snapshot(s Stats, place lifetime.Placement, cols ...*gc.Collector) Stats {
	for _, c := range cols {
		s.GCSteps += c.Steps()
		s.GCPagesCopied += c.PagesCopied()
		s.GCPreemptions += c.Preemptions()
	}
	s.GCPolicy = cols[0].PolicyName()
	s.SectorBytes = int64(m.dev.Geometry().SubpageBytes)
	s.GrownBadBlocks = int64(m.bad)
	s.ErasePolicy = m.erase.Name()
	s.LifetimeObserves = place.Observes()
	s.Wear = m.WearDist()
	s.Device = m.dev.Counters()
	return s
}
