package server

import (
	"fmt"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/wire"
)

// TestClassifyPartialWrite: READ_ONLY tells a client its write changed
// nothing, so a write that degraded the device after part of it landed
// answers ERR (undefined) while still tripping the read-only breaker.
func TestClassifyPartialWrite(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status uint8
		health Health
	}{
		{ftl.ErrReadOnly, wire.StatusReadOnly, ReadOnly},
		{fmt.Errorf("%w: %w", ftl.ErrPartialWrite, ftl.ErrReadOnly), wire.StatusErr, ReadOnly},
		{fmt.Errorf("%w: %w", ftl.ErrPartialWrite, fmt.Errorf("program failed")), wire.StatusErr, Degraded},
	} {
		if status, health := classify(tc.err); status != tc.status || health != tc.health {
			t.Errorf("classify(%v) = %s, %v; want %s, %v", tc.err, wire.StatusName(status), health, wire.StatusName(tc.status), tc.health)
		}
	}
}
