package fault

import (
	"strings"
	"testing"
)

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
		want string
	}{
		{"read prob", func(p *Profile) { p.ReadDisturbProb = 1.5 }, "ReadDisturbProb"},
		{"program prob", func(p *Profile) { p.ProgramFailProb = -0.1 }, "ProgramFailProb"},
		{"erase prob", func(p *Profile) { p.EraseFailProb = 2 }, "EraseFailProb"},
		{"factory frac", func(p *Profile) { p.FactoryBadFrac = -1 }, "FactoryBadFrac"},
		{"ber", func(p *Profile) { p.ReadDisturbBER = -0.5 }, "ReadDisturbBER"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultProfile(1)
			tc.mut(&p)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want mention of %s", err, tc.want)
			}
			if _, err := NewInjector(p); err == nil {
				t.Fatal("NewInjector accepted an invalid profile")
			}
		})
	}
	if err := DefaultProfile(1).Validate(); err != nil {
		t.Fatalf("DefaultProfile invalid: %v", err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindRead: "read", KindProgram: "program", KindErase: "erase", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestDeterminism drives two same-profile injectors through an identical
// call sequence and demands identical fault decisions, of every kind.
func TestDeterminism(t *testing.T) {
	p := DefaultProfile(7)
	p.ReadDisturbProb = 0.2
	p.ProgramFailProb = 0.1
	p.EraseFailProb = 0.05
	a, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewInjector(p)
	var delivered [3]int // read disturbs, program failures, erase failures
	for i := 0; i < 5000; i++ {
		chip, blk, wear := i%4, i%64, float64(i%41)/20 // up to twice the rated endurance
		// hit: a delivered a fault; diverged: b decided otherwise.
		var hit, diverged bool
		switch i % 3 {
		case 0:
			da, db := a.ReadDisturb(chip, blk, wear), b.ReadDisturb(chip, blk, wear)
			hit, diverged = da != 0, da != db
		case 1:
			hit = a.ProgramFail(chip, blk, wear)
			diverged = hit != b.ProgramFail(chip, blk, wear)
		case 2:
			hit = a.EraseFail(chip, blk, wear)
			diverged = hit != b.EraseFail(chip, blk, wear)
		}
		if diverged {
			t.Fatalf("decision %d (kind %d) diverged", i, i%3)
		}
		if hit {
			delivered[i%3]++
		}
	}
	if delivered[0] == 0 || delivered[1] == 0 || delivered[2] == 0 {
		t.Fatalf("no faults delivered at high probabilities: %v", delivered)
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	inj, err := NewInjector(Profile{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 1000; i++ {
		if inj.ReadDisturb(0, i, float64(i)) != 0 || inj.ProgramFail(0, i, float64(i)) || inj.EraseFail(0, i, float64(i)) || inj.FactoryBad(i) {
			delivered++
		}
	}
	if delivered != 0 {
		t.Fatalf("zero profile injected faults on %d of 1000 calls", delivered)
	}
}

// TestCampaignProgram checks After/Count/Block matching: let two programs
// on block 5 pass, then fail the next two, then revert to clean.
func TestCampaignProgram(t *testing.T) {
	inj, _ := NewInjector(Profile{Seed: 1})
	inj.Script(Event{Kind: KindProgram, Chip: -1, Block: 5, After: 2, Count: 2})
	got := []bool{}
	for i := 0; i < 6; i++ {
		got = append(got, inj.ProgramFail(0, 5, 0))
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("program %d fail = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	// Operations on other blocks never match the event.
	if inj.ProgramFail(0, 6, 0) {
		t.Fatal("event fired on a non-matching block")
	}
	fails := 0
	for _, f := range got {
		if f {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("ProgramFails = %d, want 2", fails)
	}
}

func TestCampaignReadBEROverride(t *testing.T) {
	p := Profile{Seed: 1, ReadDisturbBER: 1.6}
	inj, _ := NewInjector(p)
	inj.Script(Event{Kind: KindRead, Chip: 2, Block: -1, BER: 3.0})
	inj.Script(Event{Kind: KindRead, Chip: 2, Block: -1}) // profile-default BER
	if d := inj.ReadDisturb(0, 0, 0); d != 0 {
		t.Fatalf("disturb on chip 0 = %v, want 0 (event targets chip 2)", d)
	}
	if d := inj.ReadDisturb(2, 9, 0); d != 3.0 {
		t.Fatalf("first chip-2 disturb = %v, want the scripted 3.0", d)
	}
	if d := inj.ReadDisturb(2, 9, 0); d != 1.6 {
		t.Fatalf("second chip-2 disturb = %v, want the profile's 1.6", d)
	}
	if d := inj.ReadDisturb(2, 9, 0); d != 0 {
		t.Fatalf("third chip-2 disturb = %v, want 0 (campaign exhausted)", d)
	}
}

// TestCampaignConsumesNoRNG verifies that a fired campaign event leaves the
// probabilistic stream untouched: an injector whose first program fails by
// script must afterwards draw exactly the same sequence as a script-free
// twin that never made the first call.
func TestCampaignConsumesNoRNG(t *testing.T) {
	p := Profile{Seed: 11, ProgramFailProb: 0.3}
	a, _ := NewInjector(p)
	b, _ := NewInjector(p)
	a.Script(Event{Kind: KindProgram, Chip: -1, Block: -1})
	if !a.ProgramFail(0, 0, 0) {
		t.Fatal("scripted program did not fail")
	}
	for i := 0; i < 200; i++ {
		if a.ProgramFail(0, i, 0) != b.ProgramFail(0, i, 0) {
			t.Fatalf("RNG streams diverged at draw %d: the campaign hit consumed state", i)
		}
	}
}

func TestFactoryBadOrderIndependent(t *testing.T) {
	p := Profile{Seed: 5, FactoryBadFrac: 0.3}
	fwd, _ := NewInjector(p)
	rev, _ := NewInjector(p)
	const n = 500
	bad := 0
	for b := 0; b < n; b++ {
		if fwd.FactoryBad(b) {
			bad++
		}
	}
	for b := n - 1; b >= 0; b-- {
		if rev.FactoryBad(b) != fwd.FactoryBad(b) {
			t.Fatalf("FactoryBad(%d) depends on query order", b)
		}
	}
	// A 30 % fraction over 500 blocks lands well inside (50, 250).
	if bad < 50 || bad > 250 {
		t.Fatalf("factory-bad count %d wildly off a 0.3 fraction of %d", bad, n)
	}
	// Interleaving probabilistic draws must not change the factory set.
	fwd.ReadDisturb(0, 0, 0)
	for b := 0; b < n; b++ {
		if fwd.FactoryBad(b) != rev.FactoryBad(b) {
			t.Fatalf("FactoryBad(%d) changed after RNG use", b)
		}
	}
}

func TestWearScaling(t *testing.T) {
	// A wear multiplier that pushes the probability past 1 makes every
	// draw fail.
	p := Profile{Seed: 2, ProgramFailProb: 0.5}
	inj, _ := NewInjector(p)
	// Wear at twice the rated endurance scales 0.5 to 1.5 >= 1: certain
	// failure.
	for i := 0; i < 50; i++ {
		if !inj.ProgramFail(1, i, 2) {
			t.Fatal("probability >= 1 did not fail")
		}
	}
}
