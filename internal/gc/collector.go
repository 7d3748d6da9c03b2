package gc

import (
	"errors"

	"espftl/internal/nand"
)

// ErrNoVictim is returned when neither the policy nor the target's
// fallback can produce a victim. Callers map it to their FTL-specific
// out-of-space diagnostics.
var ErrNoVictim = errors.New("gc: no victim available")

// Target is the FTL side of a collection: the collector decides *which*
// block to drain and *when* to stop for preemption; the target does the
// actual reading, relocating, and recycling. One Work call processes
// one unit of progress (for the FTLs, one physical page of the victim),
// which is the granularity preemption operates at.
type Target interface {
	// View returns the selection view for the policy. Called once per
	// victim selection; the view needs to be consistent only for the
	// duration of that call.
	View() View
	// Fallback is a second-chance victim source consulted when the
	// policy finds no candidate (subFTL falls back to sealing an open
	// region block). Targets with no fallback return ok=false.
	Fallback() (nand.BlockID, bool)
	// Begin is called once when b becomes the active victim, before the
	// first Work call. Targets reset their per-victim cursor here.
	Begin(b nand.BlockID)
	// Work advances the collection of b by one unit. copied is the
	// number of relocation programs it issued (0 for a skipped dead
	// page); done reports that b holds no more live data and is ready
	// for Release.
	Work(b nand.BlockID) (copied int, done bool, err error)
	// Release retires the drained victim (recycle/erase-queue). Called
	// exactly once per Begin, after Work reports done.
	Release(b nand.BlockID) error
}

// Collector drives incremental, resumable collection against a Target.
// It owns the victim checkpoint: a victim selected once stays the
// active victim across any number of Step calls (and across interleaved
// Collect calls) until it is fully drained and released, which is what
// makes reentrant reclaim unable to pick the block being drained — the
// in-flight victim is excluded from every view by construction.
//
// The collector is deliberately synchronous and single-threaded, like
// the FTLs it serves; "background" means its steps are invoked from
// Tick (the scheduler's background-class command) rather than from
// inside a host write.
type Collector struct {
	policy Policy
	budget int

	victim nand.BlockID
	active bool

	steps    int64
	copied   int64
	preempts int64
}

// NewCollector builds a collector with the given policy and per-step
// page budget (<= 0 means background steps are whole-block too).
func NewCollector(p Policy, stepPages int) *Collector {
	return &Collector{policy: p, budget: stepPages}
}

// Budgeted reports whether steps run with a bounded page budget — the
// switch FTL write paths use to choose incremental (pay-as-you-go) over
// whole-block foreground collection.
func (c *Collector) Budgeted() bool { return c.budget > 0 }

// PolicyName names the configured policy.
func (c *Collector) PolicyName() string { return c.policy.Name() }

// Active reports whether a victim is currently checkpointed mid-drain.
func (c *Collector) Active() bool { return c.active }

// InFlight reports whether b is the victim currently being drained.
// Views and allocators consult this to exclude the block from
// selection and reuse.
func (c *Collector) InFlight(b nand.BlockID) bool { return c.active && c.victim == b }

// Steps is the lifetime number of collection steps (foreground drains
// count once per victim; background stepping counts every increment).
func (c *Collector) Steps() int64 { return c.steps }

// PagesCopied is the lifetime number of relocation programs issued.
func (c *Collector) PagesCopied() int64 { return c.copied }

// Preemptions counts the background steps that stopped at the budget
// with the victim still holding live data.
func (c *Collector) Preemptions() int64 { return c.preempts }

// Collect drains one whole victim: it resumes the checkpointed victim
// if one is active (finishing a preempted background collection before
// starting another block), otherwise selects a fresh one, and works it
// to completion. This is the foreground out-of-space path: exactly one
// block freed per call.
func (c *Collector) Collect(t Target) error {
	for {
		freed, err := c.step(t, 0)
		if err != nil {
			return err
		}
		if freed {
			return nil
		}
	}
}

// Step runs one bounded background increment: at most StepPages units
// of work, resuming the checkpointed victim. It reports whether the
// step completed (and released) its victim.
func (c *Collector) Step(t Target) (freed bool, err error) {
	return c.step(t, c.budget)
}

// StepIfAny is Step for an opportunistic caller (the write tax, a
// background tick): nothing collectable yet — all blocks open or already
// clean — is neither an error nor a debt the caller can settle, so
// ErrNoVictim is swallowed.
func (c *Collector) StepIfAny(t Target) error {
	if _, err := c.Step(t); err != nil && !errors.Is(err, ErrNoVictim) {
		return err
	}
	return nil
}

func (c *Collector) step(t Target, budget int) (bool, error) {
	if !c.active {
		v, ok := c.policy.SelectVictim(t.View())
		if !ok {
			v, ok = t.Fallback()
		}
		if !ok {
			return false, ErrNoVictim
		}
		c.victim, c.active = v, true
		t.Begin(v)
	}
	c.steps++
	units := 0
	for {
		n, done, err := t.Work(c.victim)
		c.copied += int64(n)
		if err != nil {
			return false, err
		}
		if done {
			victim := c.victim
			c.active = false
			if err := t.Release(victim); err != nil {
				return false, err
			}
			return true, nil
		}
		units++
		if budget > 0 && units >= budget {
			c.preempts++
			return false, nil
		}
	}
}
