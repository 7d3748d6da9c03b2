package ftltest

import (
	"sync/atomic"

	"espftl/internal/ftl"
	"espftl/internal/workload"
)

// StallFTL wraps an FTL so tests can wedge the engine on demand: while
// armed, the next Write or Read blocks until Release. Submit routes
// through those stalling methods, so the block lands on the engine
// goroutine itself, exactly the stall the server's watchdog exists to
// detect. Every other method, the chip, health and version probes
// included, is the wrapped FTL's: reads route by chip as on a production
// shard, and recovery checks still work once the stall is released.
type StallFTL struct {
	ftl.FTL
	armed   atomic.Bool
	release chan struct{}
	stalled chan struct{}
}

// NewStallFTL wraps f, initially disarmed.
func NewStallFTL(f ftl.FTL) *StallFTL {
	return &StallFTL{
		FTL:     f,
		release: make(chan struct{}),
		stalled: make(chan struct{}, 1),
	}
}

// Arm makes the next Write or Read block until Release.
func (s *StallFTL) Arm() { s.armed.Store(true) }

// Stalled returns a channel that receives once a command has entered
// the stall — the test's cue that the engine is now wedged.
func (s *StallFTL) Stalled() <-chan struct{} { return s.stalled }

// Release unblocks the stalled command (and disarms). Call at most once.
func (s *StallFTL) Release() { close(s.release) }

func (s *StallFTL) maybeStall() {
	if !s.armed.Swap(false) {
		return
	}
	select {
	case s.stalled <- struct{}{}:
	default:
	}
	<-s.release
}

// Write implements ftl.FTL, stalling first when armed.
func (s *StallFTL) Write(lsn int64, sectors int, sync bool) error {
	s.maybeStall()
	return s.FTL.Write(lsn, sectors, sync)
}

// Read implements ftl.FTL, stalling first when armed.
func (s *StallFTL) Read(lsn int64, sectors int) error {
	s.maybeStall()
	return s.FTL.Read(lsn, sectors)
}

// Submit implements ftl.Submitter through the stalling Write and Read; the
// wrapped FTL's own Submit would bypass the stall.
func (s *StallFTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(s, r, done)
}
