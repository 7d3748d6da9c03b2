package sim

import "fmt"

// Timeline tracks when a serially-used resource (a NAND chip, a channel
// bus) becomes free. Operations reserve intervals; overlapping requests are
// queued behind the current occupant, which models the resource's natural
// serialization without a full event queue.
type Timeline struct {
	name string
	// freeAt is the first instant at which the resource is idle.
	freeAt Time
	// busy accumulates total occupied time, for utilization reporting.
	busy Duration
	// ops counts reservations.
	ops int64
}

// NewTimeline returns a timeline for a named resource, idle from time zero.
func NewTimeline(name string) *Timeline { return &Timeline{name: name} }

// Name returns the resource name given at construction.
func (tl *Timeline) Name() string { return tl.name }

// FreeAt returns the first instant the resource is idle.
func (tl *Timeline) FreeAt() Time { return tl.freeAt }

// Busy returns the cumulative time the resource has been occupied.
func (tl *Timeline) Busy() Duration { return tl.busy }

// Ops returns the number of reservations made on the resource.
func (tl *Timeline) Ops() int64 { return tl.ops }

// Reserve books the resource for duration d starting no earlier than
// earliest.
//
// Granted-start contract: the caller's earliest is a lower bound, not a
// claim. When an earlier reservation still occupies the resource past
// earliest, the new reservation is queued behind it — the returned start
// is max(earliest, FreeAt), end is start+d, and the resource is busy
// until end afterwards. Callers issuing concurrent (overlapping) work —
// the host scheduler dispatching to a busy chip, read-retry steps
// stacked on a sense — must therefore use the *returned* start/end for
// any derived timing, never the earliest they asked for. Reservations
// never overlap and never move already-granted intervals.
func (tl *Timeline) Reserve(earliest Time, d Duration) (start, end Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative reservation %v on %s", d, tl.name))
	}
	start = earliest
	if tl.freeAt > start {
		start = tl.freeAt
	}
	end = start.Add(d)
	tl.freeAt = end
	tl.busy += d
	tl.ops++
	return start, end
}

// Utilization reports busy time as a fraction of the elapsed horizon. A
// horizon of zero reports zero utilization.
func (tl *Timeline) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(tl.busy) / float64(horizon)
}

// Reset returns the timeline to idle at time zero, clearing statistics.
func (tl *Timeline) Reset() {
	tl.freeAt = 0
	tl.busy = 0
	tl.ops = 0
}
