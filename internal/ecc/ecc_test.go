package ecc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		code Code
		ok   bool
	}{
		{Code{1024, 40}, true},
		{Code{0, 40}, false},
		{Code{1024, 0}, false},
		{Code{-1, -1}, false},
		{DefaultTLC, true},
	}
	for _, c := range cases {
		err := c.code.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.code, err, c.ok)
		}
	}
}

func TestMaxBER(t *testing.T) {
	c := Code{CodewordBytes: 1024, CorrectBits: 40}
	want := 40.0 / 8192.0
	if got := c.MaxBER(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MaxBER = %v, want %v", got, want)
	}
}

func TestCorrectableThreshold(t *testing.T) {
	c := DefaultTLC
	if !c.Correctable(0) {
		t.Error("BER 0 must be correctable")
	}
	if !c.Correctable(c.MaxBER()) {
		t.Error("BER exactly at MaxBER must be correctable")
	}
	if c.Correctable(c.MaxBER() * 1.01) {
		t.Error("BER just above MaxBER must be uncorrectable")
	}
}

func TestExpectedErrors(t *testing.T) {
	c := Code{CodewordBytes: 1024, CorrectBits: 40}
	if got := c.ExpectedErrors(1e-3); math.Abs(got-8.192) > 1e-9 {
		t.Fatalf("ExpectedErrors(1e-3) = %v, want 8.192", got)
	}
	if got := c.ExpectedErrors(-1); got != 0 {
		t.Fatalf("negative BER clamps to 0, got %v", got)
	}
}

// Property: MaxBER * Bits == CorrectBits for any valid code.
func TestMaxBERConsistencyProperty(t *testing.T) {
	f := func(cw, tbits uint8) bool {
		c := Code{CodewordBytes: int(cw)%4096 + 1, CorrectBits: int(tbits)%128 + 1}
		return math.Abs(c.MaxBER()*float64(c.Bits())-float64(c.CorrectBits)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
