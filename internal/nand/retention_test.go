package nand

import (
	"math"
	"testing"
	"time"

	"espftl/internal/ecc"
)

func TestRetentionModelValidate(t *testing.T) {
	if err := DefaultRetention.Validate(); err != nil {
		t.Fatalf("default retention model invalid: %v", err)
	}
	m := DefaultRetention
	m.Base[2] = 0
	if err := m.Validate(); err == nil {
		t.Error("zero base accepted")
	}
	m = DefaultRetention
	m.Base[1] = 2.0 // breaks monotonicity vs Base[2]=1.28
	if err := m.Validate(); err == nil {
		t.Error("non-monotone base accepted")
	}
	m = DefaultRetention
	m.NormalizedECCLimit = 1.0 // below Base[3]
	if err := m.Validate(); err == nil {
		t.Error("ECC limit below N3pp base accepted")
	}
}

// The paper's headline calibration: right after 1K P/E cycles the
// retention BER of an N3pp subpage is 41% higher than an N0pp subpage.
func TestRetentionN3ppIs41PercentWorse(t *testing.T) {
	m := DefaultRetention
	n0 := m.NormalizedBER(0, 0, float64(m.RatedPE), DepthFull)
	n3 := m.NormalizedBER(3, 0, float64(m.RatedPE), DepthFull)
	if math.Abs(n3/n0-1.41) > 1e-9 {
		t.Fatalf("N3pp/N0pp = %v, want 1.41", n3/n0)
	}
	if math.Abs(n0-1.0) > 1e-9 {
		t.Fatalf("N0pp endurance BER = %v, want 1.0 (normalization anchor)", n0)
	}
}

// Fig. 5's qualitative structure: BER monotone in Npp type and in age.
func TestRetentionMonotone(t *testing.T) {
	m := DefaultRetention
	for _, age := range []time.Duration{0, Month, 2 * Month} {
		prev := 0.0
		for k := NppType(0); k <= 3; k++ {
			b := m.NormalizedBER(k, age, float64(m.RatedPE), DepthFull)
			if b <= prev {
				t.Fatalf("BER not increasing in k at age %v: N%dpp=%v prev=%v", age, k, b, prev)
			}
			prev = b
		}
	}
	for k := NppType(0); k <= 3; k++ {
		if m.NormalizedBER(k, 2*Month, float64(m.RatedPE), DepthFull) <= m.NormalizedBER(k, Month, float64(m.RatedPE), DepthFull) {
			t.Fatalf("BER not increasing in age for %v", k)
		}
	}
}

// The paper's §3.3 pass/fail matrix: every ESP type survives 1 month;
// N3pp (and per the conservative model, all non-zero types) fails at 2
// months; N0pp full-page data survives a commercial year.
func TestRetentionPassFailMatrix(t *testing.T) {
	m := DefaultRetention
	pe := float64(m.RatedPE)
	for k := NppType(0); k <= 3; k++ {
		if !m.Correctable(k, Month, pe, DepthFull) {
			t.Errorf("%v fails 1-month requirement, paper says it passes", k)
		}
	}
	for k := NppType(1); k <= 3; k++ {
		if m.Correctable(k, 2*Month, pe, DepthFull) {
			t.Errorf("%v passes 2-month requirement, conservative model says it fails", k)
		}
	}
	if !m.Correctable(0, 12*Month, pe, DepthFull) {
		t.Error("N0pp fails the 1-year JEDEC requirement")
	}
	if m.Correctable(0, 14*Month, pe, DepthFull) {
		t.Error("N0pp has unbounded retention; model should cross the limit just past a year")
	}
}

func TestRetentionCapability(t *testing.T) {
	m := DefaultRetention
	pe := float64(m.RatedPE)
	for k := NppType(1); k <= 3; k++ {
		cap := m.RetentionCapability(k, pe, DepthFull)
		if cap < Month || cap >= 2*Month {
			t.Errorf("%v capability = %v, want within [1,2) months", k, cap)
		}
	}
	cap0 := m.RetentionCapability(0, pe, DepthFull)
	if cap0 < 12*Month {
		t.Errorf("N0pp capability = %v, want >= 1 year", cap0)
	}
	// Capability shrinks with wear.
	if m.RetentionCapability(3, 2*pe, DepthFull) >= m.RetentionCapability(3, pe, DepthFull) {
		t.Error("capability did not shrink with wear")
	}
	// Fresh blocks have more margin.
	if m.RetentionCapability(3, 0, DepthFull) <= m.RetentionCapability(3, pe, DepthFull) {
		t.Error("capability did not grow for a fresh block")
	}
}

func TestRetentionWearFactor(t *testing.T) {
	m := DefaultRetention
	if f := m.WearFactor(float64(m.RatedPE)); math.Abs(f-1.0) > 1e-9 {
		t.Errorf("WearFactor(rated) = %v, want 1.0", f)
	}
	if f := m.WearFactor(0); f != 0.5 {
		t.Errorf("WearFactor(0) = %v, want 0.5", f)
	}
	if m.WearFactor(3000) <= m.WearFactor(1000) {
		t.Error("WearFactor not increasing with wear")
	}
}

func TestRetentionClampNpp(t *testing.T) {
	m := DefaultRetention
	if m.NormalizedBER(9, 0, float64(m.RatedPE), DepthFull) != m.NormalizedBER(3, 0, float64(m.RatedPE), DepthFull) {
		t.Error("Npp beyond 3 not clamped to the worst characterized type")
	}
}

func TestRetentionZeroSlopeUnlimited(t *testing.T) {
	m := DefaultRetention
	m.SlopePerMonth[0] = 0
	if cap := m.RetentionCapability(0, float64(m.RatedPE), DepthFull); cap < 1000*Month {
		t.Errorf("zero-slope capability = %v, want effectively unlimited", cap)
	}
}

func TestRetentionRawBER(t *testing.T) {
	m := DefaultRetention
	code := ecc.DefaultTLC
	// At exactly the normalized limit, the raw BER equals the code's max.
	raw := m.RawBER(code, m.NormalizedECCLimit)
	if math.Abs(raw-code.MaxBER()) > 1e-15 {
		t.Fatalf("RawBER(limit) = %v, want %v", raw, code.MaxBER())
	}
	// And the mapping is linear.
	if got := m.RawBER(code, m.NormalizedECCLimit/2) * 2; math.Abs(got-code.MaxBER()) > 1e-15 {
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
