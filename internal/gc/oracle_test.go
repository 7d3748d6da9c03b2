package gc

import (
	"sort"
	"testing"

	"espftl/internal/nand"
	"espftl/internal/sim"
)

// The policies' linear forms, as they ran before victim selection moved
// onto the (Valid, BlockID)-ordered view: every selection walks all block
// IDs and asks Candidate of each. They are the reference the ordered
// policies must agree with block for block.

// scanView is the scan-shaped view the linear forms select over.
type scanView interface {
	Blocks() int
	Candidate(b nand.BlockID) bool
	Valid(b nand.BlockID) int
	UnitsPerBlock() int
	LastInvalidate(b nand.BlockID) sim.Time
	Now() sim.Time
}

func oracleGreedy(v scanView) (nand.BlockID, bool) {
	best, bestValid, found := nand.BlockID(0), 0, false
	for i := 0; i < v.Blocks(); i++ {
		b := nand.BlockID(i)
		if !v.Candidate(b) {
			continue
		}
		if valid := v.Valid(b); !found || valid < bestValid {
			best, bestValid, found = b, valid, true
		}
	}
	return best, found
}

func oracleReclaimCutoff(v scanView) (int, bool) {
	minValid, found := 0, false
	for i := 0; i < v.Blocks(); i++ {
		b := nand.BlockID(i)
		if !v.Candidate(b) {
			continue
		}
		if valid := v.Valid(b); !found || valid < minValid {
			minValid, found = valid, true
		}
	}
	if !found {
		return 0, false
	}
	return minValid + (v.UnitsPerBlock()-minValid)/2, true
}

func oracleCostBenefit(v scanView) (nand.BlockID, bool) {
	cutoff, ok := oracleReclaimCutoff(v)
	if !ok {
		return 0, false
	}
	var (
		best      nand.BlockID
		bestScore float64
		found     bool
	)
	units := float64(v.UnitsPerBlock())
	now := v.Now()
	for i := 0; i < v.Blocks(); i++ {
		b := nand.BlockID(i)
		if !v.Candidate(b) {
			continue
		}
		valid := v.Valid(b)
		if valid == 0 {
			return b, true
		}
		if valid > cutoff {
			continue
		}
		u := float64(valid) / units
		age := float64(now - v.LastInvalidate(b))
		if age < 0 {
			age = 0
		}
		score := age * (1 - u) / (2 * u)
		if !found || score > bestScore {
			best, bestScore, found = b, score, true
		}
	}
	return best, found
}

func oracleWindowed(v scanView) (nand.BlockID, bool) {
	cutoff, ok := oracleReclaimCutoff(v)
	if !ok {
		return 0, false
	}
	var cands []nand.BlockID
	for i := 0; i < v.Blocks(); i++ {
		if b := nand.BlockID(i); v.Candidate(b) && v.Valid(b) <= cutoff {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	sort.Slice(cands, func(i, j int) bool {
		ti, tj := v.LastInvalidate(cands[i]), v.LastInvalidate(cands[j])
		if ti != tj {
			return ti < tj
		}
		return cands[i] < cands[j]
	})
	if len(cands) > DefaultWindow {
		cands = cands[:DefaultWindow]
	}
	best, bestValid := cands[0], v.Valid(cands[0])
	for _, b := range cands[1:] {
		if valid := v.Valid(b); valid < bestValid {
			best, bestValid = b, valid
		}
	}
	return best, true
}

// randomView draws a view whose valid counts, ages and candidate set
// collide often: ties are where an ordered walk and an ID-order scan could
// disagree.
func randomView(rng *sim.RNG, blocks int) *fakeView {
	units := 4 + rng.Intn(29)
	valid := make([]int, blocks)
	inval := make([]sim.Time, blocks)
	for i := range valid {
		switch {
		case rng.Bool(0.3):
			valid[i] = -1
		case rng.Bool(0.05):
			valid[i] = 0
		default:
			valid[i] = 1 + rng.Intn(units)
		}
		inval[i] = sim.Time(rng.Intn(6) * 100)
	}
	v := newFakeView(valid, inval, units, sim.Time(300+rng.Intn(400)))
	if rng.Bool(0.5) {
		inFlight := nand.BlockID(rng.Intn(blocks))
		v.exclude = func(b nand.BlockID) bool { return b == inFlight }
	}
	return v
}

func TestPoliciesMatchLinearOracles(t *testing.T) {
	rng := sim.NewRNG(19)
	for iter := 0; iter < 3000; iter++ {
		v := randomView(rng, 1+rng.Intn(70))
		check := func(name string, got nand.BlockID, gotOK bool, want nand.BlockID, wantOK bool) {
			t.Helper()
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("iter %d: %s picked %d ok=%v, linear form %d ok=%v (valid %v inval %v units %d now %d)",
					iter, name, got, gotOK, want, wantOK, v.valid, v.inval, v.units, v.now)
			}
		}
		g, gOK := Greedy{}.SelectVictim(v)
		wg, wgOK := oracleGreedy(v)
		check("greedy", g, gOK, wg, wgOK)
		c, cOK := CostBenefit{}.SelectVictim(v)
		wc, wcOK := oracleCostBenefit(v)
		check("cost-benefit", c, cOK, wc, wcOK)
		b, bOK := WindowedGreedy{}.SelectVictim(v)
		wb, wbOK := oracleWindowed(v)
		check("windowed", b, bOK, wb, wbOK)
	}
}

// sizedView builds a view of the given size whose candidates within the
// reclaim cutoff are the same eight blocks whatever the size; every other
// block is a full-valid candidate beyond it.
func sizedView(blocks int) *fakeView {
	const units = 64
	valid := make([]int, blocks)
	inval := make([]sim.Time, blocks)
	for i := range valid {
		valid[i] = units
		inval[i] = sim.Time(i % 7)
	}
	for i := 0; i < 8; i++ {
		valid[i*(blocks/8)] = 3 + i
	}
	return newFakeView(valid, inval, units, 1000)
}

// Selection cost must not grow with the device: a policy reads the ordered
// view only up to its cutoff, so the number of view calls it makes is the
// same at 512 and 8,192 blocks (and greedy makes exactly one).
func TestSelectionViewCallsIndependentOfDeviceSize(t *testing.T) {
	for _, p := range []Policy{Greedy{}, CostBenefit{}, WindowedGreedy{}} {
		var calls [2]int
		for i, blocks := range []int{512, 8192} {
			v := sizedView(blocks)
			if _, ok := p.SelectVictim(v); !ok {
				t.Fatalf("%s found no victim at %d blocks", p.Name(), blocks)
			}
			calls[i] = v.calls
		}
		if calls[0] != calls[1] {
			t.Errorf("%s made %d view calls at 512 blocks, %d at 8192", p.Name(), calls[0], calls[1])
		}
		if p.Name() == "greedy" && calls[0] != 1 {
			t.Errorf("greedy made %d view calls, want 1", calls[0])
		}
	}
}

func TestSelectVictimAllocs(t *testing.T) {
	v := sizedView(512)
	for _, p := range []Policy{Greedy{}, CostBenefit{}, WindowedGreedy{}} {
		if n := testing.AllocsPerRun(100, func() { p.SelectVictim(v) }); n != 0 {
			t.Errorf("%s: %v allocs per selection, want 0", p.Name(), n)
		}
	}
}
