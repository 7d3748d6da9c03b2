package nand

import (
	"math"
	"testing"
	"time"

	"espftl/internal/ecc"
)

// The paper's headline calibration: right after 1K P/E cycles the
// retention BER of an N3pp subpage is 41% higher than an N0pp subpage.
func TestRetentionN3ppIs41PercentWorse(t *testing.T) {
	n0 := NormalizedBER(0, 0, float64(RatedPE), DepthFull)
	n3 := NormalizedBER(3, 0, float64(RatedPE), DepthFull)
	if math.Abs(n3/n0-1.41) > 1e-9 {
		t.Fatalf("N3pp/N0pp = %v, want 1.41", n3/n0)
	}
	if math.Abs(n0-1.0) > 1e-9 {
		t.Fatalf("N0pp endurance BER = %v, want 1.0 (normalization anchor)", n0)
	}
}

// Fig. 5's qualitative structure: BER monotone in Npp type and in age.
func TestRetentionMonotone(t *testing.T) {
	// The calibration itself: positive, monotone bases; positive slopes
	// and shallow-erase penalty (RetentionCapability and ShallowDepth
	// divide by them); an ECC limit that leaves N3pp a budget.
	for k := range model.Base {
		if model.Base[k] <= 0 || model.SlopePerMonth[k] <= 0 || k > 0 && model.Base[k] < model.Base[k-1] {
			t.Fatalf("Base[%d] = %v, SlopePerMonth[%d] = %v", k, model.Base[k], k, model.SlopePerMonth[k])
		}
	}
	if model.ShallowPenalty <= 0 {
		t.Fatalf("ShallowPenalty = %v, must be positive", model.ShallowPenalty)
	}
	if model.NormalizedECCLimit <= model.Base[3] {
		t.Fatalf("ECC limit %v leaves no retention budget for N3pp", model.NormalizedECCLimit)
	}
	for _, age := range []time.Duration{0, Month, 2 * Month} {
		prev := 0.0
		for k := NppType(0); k <= 3; k++ {
			b := NormalizedBER(k, age, float64(RatedPE), DepthFull)
			if b <= prev {
				t.Fatalf("BER not increasing in k at age %v: N%dpp=%v prev=%v", age, k, b, prev)
			}
			prev = b
		}
	}
	for k := NppType(0); k <= 3; k++ {
		if NormalizedBER(k, 2*Month, float64(RatedPE), DepthFull) <= NormalizedBER(k, Month, float64(RatedPE), DepthFull) {
			t.Fatalf("BER not increasing in age for %v", k)
		}
	}
}

// The paper's §3.3 pass/fail matrix: every ESP type survives 1 month;
// N3pp (and per the conservative model, all non-zero types) fails at 2
// months; N0pp full-page data survives a commercial year.
func TestRetentionPassFailMatrix(t *testing.T) {
	pe := float64(RatedPE)
	for k := NppType(0); k <= 3; k++ {
		if !Correctable(k, Month, pe, DepthFull) {
			t.Errorf("%v fails 1-month requirement, paper says it passes", k)
		}
	}
	for k := NppType(1); k <= 3; k++ {
		if Correctable(k, 2*Month, pe, DepthFull) {
			t.Errorf("%v passes 2-month requirement, conservative model says it fails", k)
		}
	}
	if !Correctable(0, 12*Month, pe, DepthFull) {
		t.Error("N0pp fails the 1-year JEDEC requirement")
	}
	if Correctable(0, 14*Month, pe, DepthFull) {
		t.Error("N0pp has unbounded retention; model should cross the limit just past a year")
	}
}

func TestRetentionCapability(t *testing.T) {
	pe := float64(RatedPE)
	for k := NppType(1); k <= 3; k++ {
		cap := RetentionCapability(k, pe, DepthFull)
		if cap < Month || cap >= 2*Month {
			t.Errorf("%v capability = %v, want within [1,2) months", k, cap)
		}
	}
	cap0 := RetentionCapability(0, pe, DepthFull)
	if cap0 < 12*Month {
		t.Errorf("N0pp capability = %v, want >= 1 year", cap0)
	}
	// Capability shrinks with wear.
	if RetentionCapability(3, 2*pe, DepthFull) >= RetentionCapability(3, pe, DepthFull) {
		t.Error("capability did not shrink with wear")
	}
	// Fresh blocks have more margin.
	if RetentionCapability(3, 0, DepthFull) <= RetentionCapability(3, pe, DepthFull) {
		t.Error("capability did not grow for a fresh block")
	}
}

func TestRetentionWearFactor(t *testing.T) {
	if f := wearFactor(float64(RatedPE)); math.Abs(f-1.0) > 1e-9 {
		t.Errorf("WearFactor(rated) = %v, want 1.0", f)
	}
	if f := wearFactor(0); f != 0.5 {
		t.Errorf("WearFactor(0) = %v, want 0.5", f)
	}
	if wearFactor(3000) <= wearFactor(1000) {
		t.Error("WearFactor not increasing with wear")
	}
}

func TestRetentionClampNpp(t *testing.T) {
	if NormalizedBER(9, 0, float64(RatedPE), DepthFull) != NormalizedBER(3, 0, float64(RatedPE), DepthFull) {
		t.Error("Npp beyond 3 not clamped to the worst characterized type")
	}
}

func TestRetentionRawBER(t *testing.T) {
	code := ecc.DefaultTLC
	// At exactly the normalized limit, the raw BER equals the code's max.
	raw := RawBER(code, model.NormalizedECCLimit)
	if math.Abs(raw-code.MaxBER()) > 1e-15 {
		t.Fatalf("RawBER(limit) = %v, want %v", raw, code.MaxBER())
	}
	// And the mapping is linear.
	if got := RawBER(code, model.NormalizedECCLimit/2) * 2; math.Abs(got-code.MaxBER()) > 1e-15 {
		t.Fatalf("RawBER not linear: %v", got)
	}
}

func TestAgeOf(t *testing.T) {
	if got := AgeOf(100, 50); got != 0 {
		t.Errorf("AgeOf(future) = %v, want 0", got)
	}
	if got := AgeOf(100, 400); got != 300*time.Nanosecond {
		t.Errorf("AgeOf = %v, want 300ns", got)
	}
}

func TestNppTypeString(t *testing.T) {
	if got := NppType(2).String(); got != "N2pp" {
		t.Errorf("String = %q, want N2pp", got)
	}
}
