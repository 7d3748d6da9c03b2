// Package ecc models the error-correcting code that protects NAND pages.
//
// Modern large-page NAND stores several ECC codewords per physical page
// (the paper's Fig. 3 shows eight 1-KB or 2-KB codewords per 16-KB page,
// one pair per 4-KB subpage). The controller can correct up to a fixed
// number of bit errors per codeword; once the raw bit error rate (RBER)
// pushes the expected error count past that capability the read fails
// uncorrectably.
//
// The decision is deterministic (an expected-value threshold), so runs are
// reproducible.
package ecc

import "fmt"

// Code describes an ECC configuration: the codeword payload size and the
// number of bit errors correctable per codeword.
type Code struct {
	// CodewordBytes is the payload protected by one codeword. The paper's
	// device uses 1-KB or 2-KB codewords; the default configuration below
	// uses 1 KB.
	CodewordBytes int
	// CorrectBits is the per-codeword correction capability (t of a
	// BCH/LDPC code). Commercial TLC-era controllers correct roughly
	// 40-72 bits per 1-KB codeword; the default uses 40.
	CorrectBits int
}

// DefaultTLC is the ECC configuration used throughout the experiments:
// 40 bits per 1-KB codeword, a typical mid-2010s TLC BCH configuration.
var DefaultTLC = Code{CodewordBytes: 1024, CorrectBits: 40}

// Validate reports a descriptive error for nonsensical configurations.
func (c Code) Validate() error {
	if c.CodewordBytes <= 0 {
		return fmt.Errorf("ecc: codeword size %d must be positive", c.CodewordBytes)
	}
	if c.CorrectBits <= 0 {
		return fmt.Errorf("ecc: correction capability %d must be positive", c.CorrectBits)
	}
	return nil
}

// Bits returns the number of payload bits per codeword.
func (c Code) Bits() int { return c.CodewordBytes * 8 }

// MaxBER returns the highest raw bit error rate at which the expected
// number of errors per codeword is still within the correction capability.
// This is the deterministic "ECC limit" line of the paper's Fig. 5.
func (c Code) MaxBER() float64 {
	return float64(c.CorrectBits) / float64(c.Bits())
}

// ExpectedErrors returns the expected number of bit errors in one codeword
// at raw bit error rate ber.
func (c Code) ExpectedErrors(ber float64) float64 {
	if ber < 0 {
		ber = 0
	}
	return ber * float64(c.Bits())
}

// Correctable reports whether a codeword read at raw bit error rate ber is
// expected to decode successfully (deterministic expected-value decision).
func (c Code) Correctable(ber float64) bool {
	return c.ExpectedErrors(ber) <= float64(c.CorrectBits)
}
