package ftl

import (
	"sync"

	"espftl/internal/workload"
)

// Guard makes an FTL's snapshot surface safe under concurrency. The FTLs
// themselves are single-threaded by design (determinism is the
// simulator's backbone), and the host scheduler preserves that by being
// the sole caller. The network service breaks the single-caller world:
// its engine goroutine submits I/O while HTTP introspection handlers and
// STAT commands read Stats concurrently. Guard restores the invariant
// with one mutex around every call, so a Stats snapshot is always taken
// between — never inside — submissions. Guard is itself an FTL: every
// method, the probes included, forwards to the wrapped FTL under the lock
// (Name, immutable, without it).
type Guard struct {
	mu sync.Mutex
	f  FTL
}

// NewGuard wraps f. The zero-cost path stays available through Unwrap
// for single-threaded callers that hold the guarded FTL.
func NewGuard(f FTL) *Guard { return &Guard{f: f} }

// Unwrap returns the guarded FTL for single-threaded phases (e.g. mount
// and preconditioning before any concurrency exists).
func (g *Guard) Unwrap() FTL { return g.f }

// Do runs fn under the guard's lock, excluding every guarded FTL call.
// Introspection uses it to snapshot state the FTL mutates but does not
// own — device counters, resource timelines — atomically with respect
// to submissions.
func (g *Guard) Do(fn func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fn()
}

// TryDo runs fn under the guard's lock only if the lock is immediately
// available, reporting whether fn ran. Introspection paths that must
// never block behind a busy or stalled engine (the wire protocol's STAT
// command) use it and fall back to a cached snapshot.
func (g *Guard) TryDo(fn func()) bool {
	if !g.mu.TryLock() {
		return false
	}
	defer g.mu.Unlock()
	fn()
	return true
}

// Name implements FTL without locking: it is immutable.
func (g *Guard) Name() string { return g.f.Name() }

// Write implements FTL.
func (g *Guard) Write(lsn int64, sectors int, sync bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Write(lsn, sectors, sync)
}

// Read implements FTL.
func (g *Guard) Read(lsn int64, sectors int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Read(lsn, sectors)
}

// Trim implements FTL.
func (g *Guard) Trim(lsn int64, sectors int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Trim(lsn, sectors)
}

// Flush implements FTL.
func (g *Guard) Flush() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Flush()
}

// Tick implements FTL.
func (g *Guard) Tick() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Tick()
}

// Stats implements FTL: the snapshot is atomic with respect to every
// guarded submission.
func (g *Guard) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Stats()
}

// Check implements FTL.
func (g *Guard) Check() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Check()
}

// Recover implements FTL.
func (g *Guard) Recover() (MountReport, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.Recover()
}

// Submit implements Submitter.
func (g *Guard) Submit(r workload.Request, done CompletionFunc) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.f.Submit(r, done)
}

// ChipOf implements ChipProbe.
func (g *Guard) ChipOf(lsn int64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.ChipOf(lsn)
}

// ReadOnly implements HealthProber.
func (g *Guard) ReadOnly() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.ReadOnly()
}

// VersionOf implements VersionProber.
func (g *Guard) VersionOf(lsn int64) uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.f.VersionOf(lsn)
}
