package host

import "fmt"

// Arbiter picks the next command to dispatch from the heads of the ready
// command queues: those that are non-empty, whose chip is idle (the
// unrouted queue always counts as idle) and whose head is not known to be
// blocked. heads holds one command per ready queue, in queue order, and
// no nil entries; dispatchable reports whether the ordering barrier
// currently lets a head issue. A head it refuses leaves the ready set
// until the command blocking it dispatches, so it may still be in heads
// but is not handed to a later Pick meanwhile. Pick returns the index of
// a head dispatchable accepted, or -1 to wait for the next event.
//
// Arbiters must be deterministic: decisions may depend only on the
// commands themselves. Seq is unique, so choosing by Seq picks the same
// command whatever the order of heads.
type Arbiter interface {
	Name() string
	Pick(heads []*Command, dispatchable func(*Command) bool) int
}

// NewArbiter resolves an arbitration policy by its Name: "fifo" (also
// the empty default) or "read-priority".
func NewArbiter(name string) (Arbiter, error) {
	switch name {
	case "", "fifo":
		return FIFO{}, nil
	case "read-priority":
		return &ReadPriority{}, nil
	}
	return nil, fmt.Errorf("host: unknown arbitration policy %q (want fifo or read-priority)", name)
}

// FIFO dispatches strictly by submission order among the dispatchable
// queue heads: the oldest command whose chip queue and hazards allow it.
type FIFO struct{}

// Name implements Arbiter.
func (FIFO) Name() string { return "fifo" }

// Pick implements Arbiter.
func (FIFO) Pick(heads []*Command, dispatchable func(*Command) bool) int {
	best := -1
	for i, c := range heads {
		if !dispatchable(c) {
			continue
		}
		if best < 0 || c.Seq < heads[best].Seq {
			best = i
		}
	}
	return best
}

// ReadPriority dispatches the oldest dispatchable read before any write,
// the policy that keeps host read latency out of the shadow of long
// program and erase operations queued ahead of it. Writes cannot starve:
// once the oldest write has been bypassed starvationLimit times it is
// promoted ahead of further reads.
type ReadPriority struct {
	bypassed int64 // times the current oldest write was bypassed
	oldest   int64 // Seq of the write being tracked
}

// starvationLimit bounds how many times the oldest pending write may be
// bypassed by younger reads.
const starvationLimit = 256

// Name implements Arbiter.
func (*ReadPriority) Name() string { return "read-priority" }

// Pick implements Arbiter.
func (a *ReadPriority) Pick(heads []*Command, dispatchable func(*Command) bool) int {
	bestRead, bestOther := -1, -1
	for i, c := range heads {
		if !dispatchable(c) {
			continue
		}
		if c.Class == ClassRead {
			if bestRead < 0 || c.Seq < heads[bestRead].Seq {
				bestRead = i
			}
		} else if bestOther < 0 || c.Seq < heads[bestOther].Seq {
			bestOther = i
		}
	}
	if bestOther >= 0 {
		// Track bypasses of the oldest dispatchable non-read command.
		if heads[bestOther].Seq != a.oldest {
			a.oldest = heads[bestOther].Seq
			a.bypassed = 0
		}
		if bestRead >= 0 && heads[bestRead].Seq > heads[bestOther].Seq {
			if a.bypassed >= starvationLimit {
				return bestOther
			}
			a.bypassed++
		}
	}
	if bestRead >= 0 {
		return bestRead
	}
	return bestOther
}
