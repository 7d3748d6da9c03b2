package lifetime

import (
	"testing"

	"espftl/internal/nand"
)

func TestFixedDeepIsFullDepth(t *testing.T) {
	var p FixedDeep
	if p.Name() != "fixed-deep" {
		t.Errorf("name = %q", p.Name())
	}
	for _, wear := range []float64{0, 1, 500, 1000, 5000} {
		if d := p.Depth(wear); d != nand.DepthFull {
			t.Errorf("FixedDeep.Depth(wear=%v) = %v, want full", wear, d)
		}
	}
}

// The adaptive policy's operating arc: fresh blocks get the shallowest
// erase the device accepts, depth deepens monotonically as effective wear
// accumulates, and at the rated life the policy converges to full-depth
// erases on its own.
func TestAEROMonotoneDeepening(t *testing.T) {
	p := NewAERO()
	if p.Name() != "aero" {
		t.Errorf("name = %q", p.Name())
	}
	if d := p.Depth(0); d != nand.MinEraseDepth {
		t.Errorf("fresh-block depth = %v, want the floor %v", d, nand.MinEraseDepth)
	}
	rated := float64(nand.RatedPE)
	prev := nand.EraseDepth(0)
	for wear := 0.0; wear <= 2*rated; wear += rated / 50 {
		d := p.Depth(wear)
		if !d.Valid() {
			t.Fatalf("Depth(wear=%v) = %v, outside [%v, %v]", wear, d, nand.MinEraseDepth, nand.DepthFull)
		}
		if d < prev {
			t.Fatalf("depth shallowed with wear: %v at wear %v, was %v", d, wear, prev)
		}
		prev = d
	}
	if d := p.Depth(rated); d != nand.DepthFull {
		t.Errorf("depth at rated wear = %v, want full", d)
	}
}

// Every depth AERO picks must actually preserve its retention
// requirements: data programmed after an erase at that depth, on a block
// that then carries the post-erase wear, stays correctable through each
// requirement's horizon.
func TestAERODepthPreservesRetention(t *testing.T) {
	p := NewAERO()
	rated := float64(nand.RatedPE)
	for wear := 0.0; wear < rated; wear += rated / 40 {
		d := p.Depth(wear)
		post := wear + float64(d)
		for _, r := range aeroRequire {
			if !nand.Correctable(r.npp, r.horizon, post, d) {
				t.Fatalf("depth %v at wear %v breaks %v over %v", d, wear, r.npp, r.horizon)
			}
		}
	}
}

// Depths land on the 1/16th pulse-train grid, rounded deeper, never
// shallower, than the analytic bound.
func TestAEROQuantizedToGrid(t *testing.T) {
	p := NewAERO()
	rated := float64(nand.RatedPE)
	for wear := 0.0; wear < rated; wear += rated / 100 {
		d := p.Depth(wear)
		if d == nand.DepthFull || d == aeroFloor {
			continue
		}
		steps := float64(d) * depthSteps
		if steps != float64(int(steps)) {
			t.Fatalf("Depth(wear=%v) = %v is off the 1/%d grid", wear, d, depthSteps)
		}
	}
}

// Every policy resolves by exactly the name its Name method reports (plus
// "" for the fixed-deep default); no other spelling is accepted.
func TestNewErasePolicy(t *testing.T) {
	p, err := NewErasePolicy("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(FixedDeep); !ok {
		t.Errorf("NewErasePolicy(\"\") = %T, want FixedDeep", p)
	}
	for _, want := range []ErasePolicy{FixedDeep{}, NewAERO()} {
		p, err := NewErasePolicy(want.Name())
		if err != nil {
			t.Fatalf("NewErasePolicy(%q): %v", want.Name(), err)
		}
		if p.Name() != want.Name() {
			t.Errorf("NewErasePolicy(%q).Name() = %q", want.Name(), p.Name())
		}
	}
	for _, name := range []string{"fixed", "bogus"} {
		if _, err := NewErasePolicy(name); err == nil {
			t.Errorf("NewErasePolicy(%q) accepted", name)
		}
	}
}
