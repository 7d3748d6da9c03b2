// Package gc is the pluggable garbage-collection policy engine: victim
// selection is a Policy over a read-only per-block View, and the actual
// relocation work is driven by an incremental Collector that copies a
// bounded number of pages per step and checkpoints its victim so a
// collection can be preempted by host traffic and resumed later.
//
// The package deliberately knows nothing about any particular FTL: an
// FTL exposes its block bookkeeping through View and its relocation
// machinery through Target (collector.go), and the policies stay pure
// functions of the view. That keeps every policy usable — and testable —
// against all three FTLs and against synthetic fixtures.
package gc

import (
	"fmt"

	"espftl/internal/nand"
	"espftl/internal/sim"
)

// View is the read-only selection view a policy picks from: the candidate
// blocks (for the FTLs: full, role-matching, and not the block a collector
// is already draining — retired blocks awaiting their drain included) in
// ascending (Valid, BlockID) order, plus the per-block inputs policies
// score on. The order is the contract: whoever implements View maintains
// it (ftl.Manager keeps an index; it never sorts or scans per selection),
// and policies read only as much of it as their choice needs.
type View interface {
	// First returns the candidate with the fewest valid units, lowest
	// BlockID on ties; ok=false when the view has no candidate.
	First() (b nand.BlockID, ok bool)
	// Next returns the candidate that follows b in (Valid, BlockID) order;
	// ok=false after the last one. b must be a block First or Next returned
	// from this view, unchanged since.
	Next(b nand.BlockID) (next nand.BlockID, ok bool)
	// Valid is the number of still-live mapping units in b (subpage
	// sectors for the sector-mapped FTLs, pages for the page-mapped
	// store; UnitsPerBlock gives the denominator either way).
	Valid(b nand.BlockID) int
	// UnitsPerBlock is the capacity of a block in the same units Valid
	// counts — the u = Valid/UnitsPerBlock utilisation denominator.
	UnitsPerBlock() int
	// LastInvalidate is the virtual time b last lost a valid unit (or
	// was sealed, whichever is later) — the "age" input of cost-benefit.
	LastInvalidate(b nand.BlockID) sim.Time
	// Now is the current virtual time.
	Now() sim.Time
}

// Policy picks a victim block from a view. Implementations must be
// deterministic: same view, same answer.
type Policy interface {
	Name() string
	// SelectVictim returns the chosen victim, or ok=false when the view
	// has no candidate at all.
	SelectVictim(v View) (nand.BlockID, bool)
}

// Greedy is classic min-valid selection: the candidate with the fewest
// live units wins, lowest block ID on ties — the view's first.
type Greedy struct{}

// Name implements Policy.
func (Greedy) Name() string { return "greedy" }

// SelectVictim implements Policy.
func (Greedy) SelectVictim(v View) (nand.BlockID, bool) { return v.First() }

// reclaimCutoff returns the maximum valid count an age-aware policy may
// select, given the view's first (min-valid) candidate. Age terms span many
// orders of magnitude (a hot block's age resets every few microseconds
// while a cold block ages for the whole run), so unconstrained age scoring
// degenerates into cleaning ~full cold blocks — each erase reclaiming
// almost nothing, spiralling write amplification and erase wear under pool
// pressure. The cutoff requires a victim to reclaim at least half of what
// the best (min-valid) candidate would, bounding the cleaning cost at 2x
// greedy while leaving age free to reorder among reasonable victims. It is
// also where the age-aware policies stop reading the view.
func reclaimCutoff(v View, first nand.BlockID) int {
	minValid := v.Valid(first)
	return minValid + (v.UnitsPerBlock()-minValid)/2
}

// CostBenefit is Rosenblum-style age-weighted selection: maximise
// benefit/cost = age * (1-u) / 2u, where u is the block's utilisation
// and age is the time since it last lost a valid unit. Cold blocks that
// have stopped being invalidated become attractive even at moderate u,
// which is exactly what hot/cold-skewed workloads need; a fully dead
// block (u = 0) is free space and always wins immediately. Selection is
// restricted to candidates within the reclaim cutoff (see reclaimCutoff)
// so the age term cannot drive the cleaner into near-full cold blocks.
// Equal scores resolve to the lowest BlockID.
type CostBenefit struct{}

// Name implements Policy.
func (CostBenefit) Name() string { return "cost-benefit" }

// SelectVictim implements Policy.
func (CostBenefit) SelectVictim(v View) (nand.BlockID, bool) {
	b, ok := v.First()
	if !ok || v.Valid(b) == 0 {
		// Free space at zero copy cost: nothing can score higher, and the
		// view's first is the lowest-numbered such block.
		return b, ok
	}
	cutoff := reclaimCutoff(v, b)
	var (
		best      nand.BlockID
		bestScore float64
		found     bool
	)
	units := float64(v.UnitsPerBlock())
	now := v.Now()
	for ; ok && v.Valid(b) <= cutoff; b, ok = v.Next(b) {
		u := float64(v.Valid(b)) / units
		age := float64(now - v.LastInvalidate(b))
		if age < 0 {
			age = 0
		}
		// The canonical segment-cleaning score. Reading the block costs
		// 1, writing back the live fraction costs u, hence 2u in the
		// denominator under the read-modify-write cost model.
		score := age * (1 - u) / (2 * u)
		if !found || score > bestScore || (score == bestScore && b < best) {
			best, bestScore, found = b, score, true
		}
	}
	return best, found
}

// WindowedGreedy restricts greedy selection to the DefaultWindow oldest
// candidates by last-invalidate time. The window makes selection age-aware
// (hot blocks still being invalidated get time to bleed out before they
// are cleaned) without the float scoring of cost-benefit. Like
// cost-benefit, the candidate set is bounded by the reclaim cutoff so the
// oldest-first window cannot fill up with near-full cold blocks. Equal
// valid counts inside the window resolve to the older block, then the
// lower BlockID.
type WindowedGreedy struct{}

// DefaultWindow is the windowed-greedy candidate window.
const DefaultWindow = 8

// Name implements Policy.
func (p WindowedGreedy) Name() string { return "windowed" }

// SelectVictim implements Policy.
func (p WindowedGreedy) SelectVictim(v View) (nand.BlockID, bool) {
	b, ok := v.First()
	if !ok {
		return 0, false
	}
	cutoff := reclaimCutoff(v, b)
	// window holds the (up to) DefaultWindow oldest candidates seen so
	// far, oldest first; block ID breaks last-invalidate ties so the
	// window — and therefore the selection — is fully deterministic.
	type aged struct {
		b nand.BlockID
		t sim.Time
	}
	var stack [DefaultWindow]aged
	window := stack[:0]
	for ; ok && v.Valid(b) <= cutoff; b, ok = v.Next(b) {
		c := aged{b, v.LastInvalidate(b)}
		i := len(window)
		for i > 0 && (c.t < window[i-1].t || (c.t == window[i-1].t && c.b < window[i-1].b)) {
			i--
		}
		if i == DefaultWindow {
			continue
		}
		if len(window) < DefaultWindow {
			window = append(window, aged{})
		}
		copy(window[i+1:], window[i:])
		window[i] = c
	}
	best := window[0]
	for _, c := range window[1:] {
		if v.Valid(c.b) < v.Valid(best.b) {
			best = c
		}
	}
	return best.b, true
}

// Options is the GC configuration every FTL accepts: which policy to
// select victims with, how many pages one background step may copy, and
// how much free-block slack triggers background collection.
type Options struct {
	// Policy is the victim-selection policy name: "greedy" (default),
	// "cost-benefit", or "windowed".
	Policy string
	// StepPages bounds the pages copied per background collection step;
	// 0 keeps background steps whole-block. Foreground (out-of-space)
	// collection always drains a full victim regardless.
	StepPages int
	// BackgroundSlack starts background collection while FreeCount is
	// still this many blocks above the out-of-space reserve, so steps
	// run from Tick (background-class, read-yielding) instead of
	// stalling a host write. 0 disables background collection.
	BackgroundSlack int
}

// NewPolicy resolves a policy name. The empty string is greedy.
func NewPolicy(opts Options) (Policy, error) {
	switch opts.Policy {
	case "", "greedy":
		return Greedy{}, nil
	case "cost-benefit":
		return CostBenefit{}, nil
	case "windowed":
		return WindowedGreedy{}, nil
	}
	return nil, fmt.Errorf("gc: unknown policy %q (greedy, cost-benefit, windowed)", opts.Policy)
}
