package ftl

import "espftl/internal/lifetime"

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
