package nand

import (
	"testing"
	"time"
)

func TestShallowFactor(t *testing.T) {
	// Full depth and the never-erased zero value cost exactly factor 1.
	for _, d := range []EraseDepth{DepthFull, 0, -1, 2} {
		if f := shallowFactor(d); f != 1 {
			t.Errorf("ShallowFactor(%v) = %v, want exactly 1", d, f)
		}
	}
	// The shallowest erase carries the largest penalty; the factor is
	// monotone decreasing toward full depth.
	prev := shallowFactor(MinEraseDepth)
	if want := 1 + model.ShallowPenalty*float64(DepthFull-MinEraseDepth); prev != want {
		t.Fatalf("ShallowFactor(min) = %v, want %v", prev, want)
	}
	for d := MinEraseDepth + 1.0/16; d < DepthFull; d += 1.0 / 16 {
		f := shallowFactor(d)
		if f >= prev {
			t.Fatalf("ShallowFactor not decreasing in depth: %v at %v, was %v", f, d, prev)
		}
		if f <= 1 {
			t.Fatalf("ShallowFactor(%v) = %v, must stay above 1 below full depth", d, f)
		}
		prev = f
	}
}

// Correctability boundary edges across the wear x depth grid: shallower
// erases and higher wear only ever shrink the margin, and for every wear
// level where some depth is on the wrong side of the ECC limit, the flip
// happens exactly once along the depth axis.
func TestCorrectableAtBoundaryEdges(t *testing.T) {
	rated := float64(RatedPE)
	wears := []float64{0, rated / 4, rated / 2, rated, 1.5 * rated, 2 * rated}
	depths := []EraseDepth{MinEraseDepth, 0.5, 0.75, 1.0}
	for k := NppType(0); k <= 3; k++ {
		for _, age := range []time.Duration{Month / 2, Month, 2 * Month} {
			for _, wear := range wears {
				flips := 0
				prevOK := false
				for i, d := range depths {
					ok := Correctable(k, age, wear, d)
					// BER monotone: shallower depth is never better.
					if i > 0 && prevOK && !ok {
						t.Fatalf("%v at wear %v age %v: depth %v correctable but deeper %v not",
							k, wear, age, depths[i-1], d)
					}
					if i > 0 && ok != prevOK {
						flips++
					}
					prevOK = ok
				}
				if flips > 1 {
					t.Fatalf("%v at wear %v age %v: correctability flipped %d times along depth", k, wear, age, flips)
				}
			}
		}
	}
	// A concrete boundary from the calibrated model: N3pp month-old data
	// on a fresh block survives the shallowest erase, but the same data on
	// a block at rated wear needs full depth.
	if !Correctable(3, Month, 0, MinEraseDepth) {
		t.Error("fresh block cannot host N3pp 1-month data after the shallowest erase")
	}
	if Correctable(3, Month, rated, MinEraseDepth) {
		t.Error("rated-wear block accepts N3pp 1-month data after a min-depth erase; the margin should be gone")
	}
	if !Correctable(3, Month, rated, DepthFull) {
		t.Error("rated-wear block at full depth must still meet the paper's 1-month N3pp requirement")
	}
}

// Capability shrinks monotonically as the erase shallows, mirroring the
// BER penalty, and a shallow-erased block can cross from "passes the
// subpage horizon" to "fails it" on depth alone.
func TestRetentionCapabilityAtDepth(t *testing.T) {
	rated := float64(RatedPE)
	for k := NppType(0); k <= 3; k++ {
		for _, wear := range []float64{0, rated / 2, rated} {
			prev := time.Duration(1<<62 - 1)
			for _, d := range []EraseDepth{DepthFull, 0.75, 0.5, MinEraseDepth} {
				c := RetentionCapability(k, wear, d)
				if c > prev {
					t.Fatalf("%v wear %v: capability grew as depth shallowed (%v at depth %v, was %v)", k, wear, c, d, prev)
				}
				prev = c
			}
		}
	}
	deep := RetentionCapability(3, rated, DepthFull)
	shallow := RetentionCapability(3, rated, MinEraseDepth)
	if deep < Month || shallow >= Month {
		t.Fatalf("N3pp at rated wear: capability deep=%v shallow=%v, want the 1-month line crossed between them", deep, shallow)
	}
}

// MaxShallowFactor inverts NormalizedBER: any depth whose ShallowFactor
// stays at or below the bound keeps the data correctable through the
// horizon, and any factor above it does not.
func TestMaxShallowFactorInversion(t *testing.T) {
	rated := float64(RatedPE)
	for k := NppType(0); k <= 3; k++ {
		for _, horizon := range []time.Duration{Month, 12 * Month} {
			for _, wear := range []float64{0, rated / 2, rated, 2 * rated} {
				bound := MaxShallowFactor(k, horizon, wear)
				base := (model.Base[clampNpp(k)] + model.SlopePerMonth[clampNpp(k)]*float64(horizon)/float64(Month)) * wearFactor(wear)
				if base*bound > model.NormalizedECCLimit*(1+1e-12) {
					t.Fatalf("%v horizon %v wear %v: bound %v overshoots the ECC limit", k, horizon, wear, bound)
				}
				if bound < 1 {
					// Even full depth fails: the model must agree.
					if Correctable(k, horizon, wear, DepthFull) {
						t.Fatalf("%v horizon %v wear %v: bound %v < 1 but full depth correctable", k, horizon, wear, bound)
					}
				}
			}
		}
	}
}
