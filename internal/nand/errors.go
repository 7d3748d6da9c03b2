package nand

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by device operations. Callers match them with
// errors.Is; the concrete errors carry address and cause detail.
var (
	// ErrBadAddress reports an address outside the device geometry.
	ErrBadAddress = errors.New("nand: address out of range")
	// ErrReprogram reports an attempt to program a subpage (or full page
	// overlapping one) that is already programmed without an intervening
	// erase — forbidden even under ESP, because re-programming a
	// programmed cell destroys it (paper §3.2).
	ErrReprogram = errors.New("nand: subpage already programmed since last erase")
	// ErrNotProgrammed reports a read of an erased (never programmed)
	// subpage.
	ErrNotProgrammed = errors.New("nand: subpage not programmed")
	// ErrDestroyed reports a read of a subpage whose content was destroyed
	// by a later ESP pass on the same page.
	ErrDestroyed = errors.New("nand: subpage destroyed by later subpage program")
	// ErrUncorrectable reports a read whose raw bit error rate exceeded
	// the ECC correction capability (retention expiry or wear-out).
	ErrUncorrectable = errors.New("nand: uncorrectable ECC error")
	// ErrSubpageReadDisabled reports a subpage read on a device built
	// without the subpage-read extension.
	ErrSubpageReadDisabled = errors.New("nand: subpage read not enabled on this device")
	// ErrProgramFail reports an injected program failure: the pass aborted
	// mid-flight and destroyed the page's content. The FTL must replay the
	// write elsewhere and retire the block (grown bad).
	ErrProgramFail = errors.New("nand: program operation failed")
	// ErrEraseFail reports an injected erase failure: the block did not
	// erase and must leave service (grown bad).
	ErrEraseFail = errors.New("nand: erase operation failed")
	// ErrBadDepth reports an EraseAt with a depth outside
	// [MinEraseDepth, DepthFull].
	ErrBadDepth = errors.New("nand: erase depth out of range")
	// ErrPowerLoss reports that power was cut: either this operation was
	// the one the SPO injector killed, or the device is already dead and
	// rejects all work until PowerOn.
	ErrPowerLoss = errors.New("nand: power lost")
	// ErrTorn reports a read of a subpage whose program was interrupted by
	// power loss: the cells hold a partial charge distribution that no
	// read-retry level can decode.
	ErrTorn = errors.New("nand: subpage torn by interrupted program")
	// ErrBadLSN reports a program whose stamp names an LSN a cell cannot
	// hold: below PaddingLSN, or 2^31 or above (no device address, and so
	// no logical sector of a device-sized space, reaches it).
	ErrBadLSN = errors.New("nand: stamp lsn outside [-1, 2^31)")
	// ErrBadOOB reports an out-of-band record that failed to decode
	// (truncated, wrong magic, or checksum mismatch).
	ErrBadOOB = errors.New("nand: malformed oob record")
)

// OpError is the concrete error type for failed device operations.
type OpError struct {
	// Op names the failed operation ("read", "program", "subprogram",
	// "erase").
	Op string
	// Block, Page, Sub locate the failure; Sub is -1 for whole-page and
	// whole-block operations.
	Block BlockID
	Page  int
	Sub   int
	// Err is the sentinel cause.
	Err error
	// Detail optionally elaborates (e.g. the normalized BER at failure).
	Detail string
}

// Error implements the error interface.
func (e *OpError) Error() string {
	loc := fmt.Sprintf("block %d page %d", e.Block, e.Page)
	if e.Sub >= 0 {
		loc += fmt.Sprintf(" sub %d", e.Sub)
	}
	msg := fmt.Sprintf("nand %s %s: %v", e.Op, loc, e.Err)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// Unwrap exposes the sentinel cause for errors.Is.
func (e *OpError) Unwrap() error { return e.Err }
