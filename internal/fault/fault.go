// Package fault implements a deterministic, seeded fault injector for the
// NAND device model. The device consults the injector on every operation
// to decide whether to corrupt it: transient read disturbs (an additive
// normalized-BER delta on one sense), program failures, erase failures,
// and factory bad blocks. Grown bad blocks are an FTL-level consequence
// (ftl.Manager retires blocks whose programs or erases fail), not an
// injector concern.
//
// All stochastic decisions flow through one sim.RNG seeded from the
// profile, never wall-clock time, so a run with a given seed produces the
// same fault sequence every time. Factory bad blocks are decided by a pure
// per-block hash of the seed, independent of operation order, so every
// component (device, manager, tools) sees the same factory-bad set.
//
// For tests that need a fault at an exact operation rather than a
// probability, Script registers campaign events: "fail the 3rd program on
// block 17", "disturb the next read of chip 2 by +1.6 normalized BER".
// Campaign events are checked before the probabilistic draw and do not
// consume RNG state when they fire.
package fault

import (
	"fmt"

	"espftl/internal/sim"
)

// Kind classifies an injectable fault.
type Kind uint8

// The injectable operation kinds.
const (
	KindRead Kind = iota
	KindProgram
	KindErase
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindProgram:
		return "program"
	case KindErase:
		return "erase"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Profile describes the stochastic fault environment of one device. All
// probabilities are per operation; a zero value injects nothing of that
// kind. Wear scaling multiplies the program/erase/read-disturb
// probabilities by (1 + wear), where wear is the block's P/E cycles as a
// fraction of its rated endurance, modeling the P/E-cycle growth of media
// failures; every chip draws from the same probabilities.
type Profile struct {
	// Seed drives every probabilistic draw and the factory-bad hash.
	Seed uint64
	// ReadDisturbProb is the chance one subpage sense is disturbed.
	ReadDisturbProb float64
	// ReadDisturbBER is the normalized-BER delta a disturb adds to the
	// sense (same unit as nand.NormalizedECCLimit).
	ReadDisturbBER float64
	// ProgramFailProb is the chance one program (full-page or ESP pass)
	// fails, destroying the page's content.
	ProgramFailProb float64
	// EraseFailProb is the chance one erase fails, leaving the block
	// unusable (grown bad).
	EraseFailProb float64
	// FactoryBadFrac is the fraction of blocks bad from the factory.
	FactoryBadFrac float64
}

// DefaultProfile returns a moderate fault environment: rare disturbs that
// a couple of read-retry steps clear, program/erase failure rates in the
// range real grown-bad-block studies report, and 0.5 % factory bad blocks.
func DefaultProfile(seed uint64) Profile {
	return Profile{
		Seed:            seed,
		ReadDisturbProb: 1e-3,
		ReadDisturbBER:  1.6,
		ProgramFailProb: 2e-4,
		EraseFailProb:   5e-5,
		FactoryBadFrac:  0.005,
	}
}

// Validate reports a descriptive error for a nonsensical profile.
func (p Profile) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"ReadDisturbProb", p.ReadDisturbProb},
		{"ProgramFailProb", p.ProgramFailProb},
		{"EraseFailProb", p.EraseFailProb},
		{"FactoryBadFrac", p.FactoryBadFrac},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.ReadDisturbBER < 0 {
		return fmt.Errorf("fault: ReadDisturbBER = %v must be non-negative", p.ReadDisturbBER)
	}
	return nil
}

// Event is one scripted campaign entry: inject a fault of Kind on the
// operations matching Chip/Block (-1 matches any), after skipping the
// first After matching operations, for Count occurrences (0 means 1).
type Event struct {
	Kind  Kind
	Chip  int // -1 = any chip
	Block int // -1 = any block
	After int // matching operations to let pass first
	Count int // occurrences to inject (0 = 1)
	// BER overrides the profile's ReadDisturbBER for read events; 0 keeps
	// the profile default. Ignored for program/erase events.
	BER float64

	seen  int
	fired int
}

// Injector is the device-facing fault source. It is not safe for
// concurrent use, matching the single-threaded simulator.
type Injector struct {
	prof     Profile
	rng      *sim.RNG
	campaign []*Event
	spo      spoPlan
}

// spoPlan is one armed sudden-power-off: kill the device at operation
// index op (or the first op at/after it), optionally tearing the page if
// that op is a program.
type spoPlan struct {
	op    int64
	torn  bool
	armed bool
	fired bool
}

// NewInjector validates the profile and returns an injector over it.
func NewInjector(p Profile) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{prof: p, rng: sim.NewRNG(p.Seed)}, nil
}

// Script registers a campaign event. Events are matched in registration
// order, each consumed independently.
func (inj *Injector) Script(ev Event) {
	e := ev
	inj.campaign = append(inj.campaign, &e)
}

// campaignHit finds and consumes the first matching campaign event.
func (inj *Injector) campaignHit(k Kind, chip, block int) (*Event, bool) {
	for _, ev := range inj.campaign {
		if ev.Kind != k {
			continue
		}
		if ev.Chip >= 0 && ev.Chip != chip {
			continue
		}
		if ev.Block >= 0 && ev.Block != block {
			continue
		}
		n := ev.Count
		if n == 0 {
			n = 1
		}
		if ev.fired >= n {
			continue
		}
		if ev.seen < ev.After {
			ev.seen++
			continue
		}
		ev.fired++
		return ev, true
	}
	return nil, false
}

// ReadDisturb returns the normalized-BER delta to add to one subpage
// sense on the given chip/block at the given wear (P/E cycles as a
// fraction of the rated endurance); 0 means a clean read.
func (inj *Injector) ReadDisturb(chip, block int, wear float64) float64 {
	ev, hit := inj.campaignHit(KindRead, chip, block)
	switch {
	case hit && ev.BER > 0:
		return ev.BER
	case hit || inj.rng.Bool(inj.prof.ReadDisturbProb*(1+wear)):
		return inj.prof.ReadDisturbBER
	}
	return 0
}

// ProgramFail reports whether the program on the given chip/block fails.
func (inj *Injector) ProgramFail(chip, block int, wear float64) bool {
	_, hit := inj.campaignHit(KindProgram, chip, block)
	return hit || inj.rng.Bool(inj.prof.ProgramFailProb*(1+wear))
}

// EraseFail reports whether the erase of the given block fails.
func (inj *Injector) EraseFail(chip, block int, wear float64) bool {
	_, hit := inj.campaignHit(KindErase, chip, block)
	return hit || inj.rng.Bool(inj.prof.EraseFailProb*(1+wear))
}

// ArmSPO schedules a sudden power-off at device operation index opIndex
// (0-based over every admitted op, as counted by nand.Device.OpCount).
// With torn set and the victim op a program, the page is left in the torn
// (partially programmed) state; otherwise power dies cleanly at the op
// boundary before any state changes. Re-arming replaces any previous plan.
// The plan is exact under a fixed seed and workload because the simulator
// is single-threaded: op index i always denotes the same operation.
func (inj *Injector) ArmSPO(opIndex int64, torn bool) {
	inj.spo = spoPlan{op: opIndex, torn: torn, armed: true}
}

// SPOArmed reports whether an SPO is armed and not yet delivered.
func (inj *Injector) SPOArmed() bool { return inj.spo.armed && !inj.spo.fired }

// SPO is the device-side hook: it reports whether power dies at this
// operation index, and whether the op should be left torn. It fires at
// most once per arming.
func (inj *Injector) SPO(opIndex int64) (fire, torn bool) {
	if !inj.spo.armed || inj.spo.fired || opIndex < inj.spo.op {
		return false, false
	}
	inj.spo.fired = true
	return true, inj.spo.torn
}

// FactoryBad reports whether block is bad from the factory. The decision
// is a pure hash of (Seed, block): independent of call order, so it can be
// consulted by the device, the block manager and tooling and always agree.
func (inj *Injector) FactoryBad(block int) bool {
	if inj.prof.FactoryBadFrac <= 0 {
		return false
	}
	h := sim.NewRNG(inj.prof.Seed ^ (uint64(block)+1)*0x9e3779b97f4a7c15)
	return h.Float64() < inj.prof.FactoryBadFrac
}
