package gc

import (
	"testing"

	"espftl/internal/nand"
	"espftl/internal/sim"
)

// fakeView is a synthetic selection view for policy tests. It keeps its
// blocks unordered and finds each First/Next by a linear scan — the
// reference for the order a real view must maintain — and counts the view
// calls a policy makes.
type fakeView struct {
	valid   []int // -1 marks a non-candidate
	inval   []sim.Time
	units   int
	now     sim.Time
	exclude func(nand.BlockID) bool // optional veto, as the FTL views take
	calls   int
}

// Blocks and Candidate are the scan-shaped surface the linear oracles read.
func (v *fakeView) Blocks() int { return len(v.valid) }
func (v *fakeView) Candidate(b nand.BlockID) bool {
	return v.valid[b] >= 0 && (v.exclude == nil || !v.exclude(b))
}

// after returns the candidate with the smallest (valid, id) at or after the
// given position.
func (v *fakeView) after(valid int, from nand.BlockID) (nand.BlockID, bool) {
	best, found := nand.BlockID(0), false
	for i := range v.valid {
		b := nand.BlockID(i)
		if !v.Candidate(b) || v.valid[b] < valid || (v.valid[b] == valid && b < from) {
			continue
		}
		if !found || v.valid[b] < v.valid[best] {
			best, found = b, true
		}
	}
	return best, found
}

func (v *fakeView) First() (nand.BlockID, bool) { v.calls++; return v.after(0, 0) }
func (v *fakeView) Next(b nand.BlockID) (nand.BlockID, bool) {
	v.calls++
	return v.after(v.valid[b], b+1)
}
func (v *fakeView) Valid(b nand.BlockID) int { v.calls++; return v.valid[b] }
func (v *fakeView) UnitsPerBlock() int       { v.calls++; return v.units }
func (v *fakeView) Now() sim.Time            { v.calls++; return v.now }
func (v *fakeView) LastInvalidate(b nand.BlockID) sim.Time {
	v.calls++
	return v.inval[b]
}

func newFakeView(valid []int, inval []sim.Time, units int, now sim.Time) *fakeView {
	return &fakeView{valid: valid, inval: inval, units: units, now: now}
}

func TestGreedyMinValidLowestID(t *testing.T) {
	v := newFakeView([]int{5, 2, -1, 2, 7}, make([]sim.Time, 5), 8, 100)
	b, ok := Greedy{}.SelectVictim(v)
	if !ok || b != 1 {
		t.Fatalf("greedy picked %d ok=%v, want block 1 (min valid, lowest id)", b, ok)
	}
}

func TestGreedyNoCandidates(t *testing.T) {
	v := newFakeView([]int{-1, -1}, make([]sim.Time, 2), 8, 0)
	if _, ok := (Greedy{}).SelectVictim(v); ok {
		t.Fatal("greedy found a victim in an empty view")
	}
}

func TestCostBenefitPrefersColdBlock(t *testing.T) {
	// Block 0: fewer valid units but invalidated just now (hot).
	// Block 1: more valid units but cold for ages. Cost-benefit must
	// pick the cold one; greedy would pick the hot one.
	valid := []int{2, 4}
	inval := []sim.Time{1000, 0}
	v := newFakeView(valid, inval, 8, 1001)
	if b, _ := (Greedy{}).SelectVictim(v); b != 0 {
		t.Fatalf("greedy sanity: picked %d, want 0", b)
	}
	b, ok := CostBenefit{}.SelectVictim(v)
	if !ok || b != 1 {
		t.Fatalf("cost-benefit picked %d ok=%v, want cold block 1", b, ok)
	}
}

func TestCostBenefitDeadBlockWinsImmediately(t *testing.T) {
	v := newFakeView([]int{3, 0, 1}, []sim.Time{0, 1000, 0}, 8, 1001)
	b, ok := CostBenefit{}.SelectVictim(v)
	if !ok || b != 1 {
		t.Fatalf("cost-benefit picked %d ok=%v, want dead block 1", b, ok)
	}
}

func TestCostBenefitTieKeepsLowestID(t *testing.T) {
	// Identical candidates: strict > on the score keeps the first seen.
	v := newFakeView([]int{3, 3, 3}, []sim.Time{5, 5, 5}, 8, 100)
	b, ok := CostBenefit{}.SelectVictim(v)
	if !ok || b != 0 {
		t.Fatalf("cost-benefit picked %d ok=%v, want lowest id 0 on ties", b, ok)
	}
}

func TestWindowedGreedyRestrictsToOldest(t *testing.T) {
	// Block 8 has the global minimum valid count but is the youngest;
	// only the eight oldest (blocks 0..7) are in the window, and the min
	// valid of those is block 7.
	valid := []int{9, 9, 9, 9, 9, 9, 9, 5, 1}
	inval := []sim.Time{10, 11, 12, 13, 14, 15, 16, 17, 40}
	// units = 32 keeps every block within the reclaim cutoff (1 + 31/2 = 16)
	// so this test isolates the window restriction.
	v := newFakeView(valid, inval, 32, 100)
	b, ok := WindowedGreedy{}.SelectVictim(v)
	if !ok || b != 7 {
		t.Fatalf("windowed picked %d ok=%v, want 7 (min valid inside 8-oldest window)", b, ok)
	}
	// A window covering every candidate degenerates to plain greedy.
	v = newFakeView(valid[1:], inval[1:], 32, 100)
	b, ok = WindowedGreedy{}.SelectVictim(v)
	if !ok || b != 7 {
		t.Fatalf("window over all 8 candidates picked %d ok=%v, want greedy answer 7", b, ok)
	}
}

func TestWindowedGreedyDefaultWindow(t *testing.T) {
	valid := make([]int, 12)
	inval := make([]sim.Time, 12)
	for i := range valid {
		valid[i] = 12 - i           // youngest blocks have fewest valid
		inval[i] = sim.Time(i * 10) // ascending age: block 0 oldest
	}
	// units = 32 keeps every block within the reclaim cutoff (1 + 31/2 = 16)
	// so this test isolates the default window size.
	v := newFakeView(valid, inval, 32, 1000)
	b, ok := WindowedGreedy{}.SelectVictim(v)
	// Default window = 8 oldest = blocks 0..7; min valid there is block 7.
	if !ok || b != 7 {
		t.Fatalf("default-window picked %d ok=%v, want 7", b, ok)
	}
}

func TestReclaimCutoffExcludesNearFullColdBlocks(t *testing.T) {
	// Block 1 is ancient but nearly full (7/8 valid): cleaning it reclaims
	// one unit per erase, the age-driven thrash that melts a device under
	// pool pressure. Both age-aware policies must skip it: the cutoff is
	// 2 + (8-2)/2 = 5, so only blocks 0 and 2 are eligible.
	valid := []int{2, 7, 4}
	inval := []sim.Time{900, 0, 10}
	v := newFakeView(valid, inval, 8, 1000)
	if b, ok := (CostBenefit{}).SelectVictim(v); !ok || b == 1 {
		t.Fatalf("cost-benefit picked %d ok=%v, want a block under the reclaim cutoff", b, ok)
	}
	// Eight ancient near-full blocks would fill the window ahead of the
	// two eligible ones, 8 and 9; the cutoff keeps them out of it.
	v = newFakeView([]int{7, 7, 7, 7, 7, 7, 7, 7, 2, 4}, []sim.Time{0, 1, 2, 3, 4, 5, 6, 7, 900, 10}, 8, 1000)
	if b, ok := (WindowedGreedy{}).SelectVictim(v); !ok || b != 8 {
		t.Fatalf("windowed picked %d ok=%v, want 8 (min valid under the reclaim cutoff)", b, ok)
	}
	// When every candidate is near-full (a freshly filled device) the
	// cutoff must not empty the candidate set.
	v = newFakeView([]int{8, 8}, []sim.Time{0, 5}, 8, 1000)
	if _, ok := (CostBenefit{}).SelectVictim(v); !ok {
		t.Fatal("cost-benefit found no victim in an all-full view")
	}
	if _, ok := (WindowedGreedy{}).SelectVictim(v); !ok {
		t.Fatal("windowed found no victim in an all-full view")
	}
}

func TestPoliciesDeterministic(t *testing.T) {
	v := newFakeView([]int{4, 2, 7, 2, 0, -1, 3}, []sim.Time{9, 3, 7, 3, 2, 0, 5}, 8, 50)
	for _, p := range []Policy{Greedy{}, CostBenefit{}, WindowedGreedy{}} {
		first, ok := p.SelectVictim(v)
		if !ok {
			t.Fatalf("%s found no victim", p.Name())
		}
		for i := 0; i < 10; i++ {
			if b, _ := p.SelectVictim(v); b != first {
				t.Fatalf("%s nondeterministic: %d then %d", p.Name(), first, b)
			}
		}
	}
}

// Every policy resolves by exactly the name its Name method reports (plus
// "" for greedy); no other spelling is accepted.
func TestNewPolicyResolver(t *testing.T) {
	if p, err := NewPolicy(Options{}); err != nil || p.Name() != "greedy" {
		t.Fatalf("NewPolicy(\"\") = %v, %v; want greedy", p, err)
	}
	for _, want := range []Policy{Greedy{}, CostBenefit{}, WindowedGreedy{}} {
		p, err := NewPolicy(Options{Policy: want.Name()})
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", want.Name(), err)
		}
		if p.Name() != want.Name() {
			t.Fatalf("NewPolicy(%q) = %s", want.Name(), p.Name())
		}
	}
	for _, name := range []string{"costbenefit", "cb", "windowed-greedy", "lru"} {
		if _, err := NewPolicy(Options{Policy: name}); err == nil {
			t.Errorf("NewPolicy(%q) accepted", name)
		}
	}
}
