package nand

import (
	"fmt"
	"time"

	"espftl/internal/ecc"
	"espftl/internal/sim"
)

// Month is the 30-day virtual month used by the retention model, matching
// the paper's "1-month retention time requirement" granularity.
const Month = 30 * 24 * time.Hour

// NppType classifies a subpage by the number of program passes its page had
// received before the subpage itself was programmed (paper §3.3). An
// N⁰pp-type subpage was written into a fresh page (or as part of a
// full-page program); an N³pp-type subpage was written after three earlier
// ESP passes and has the weakest retention.
type NppType uint8

// String formats the type in the paper's notation.
func (k NppType) String() string { return fmt.Sprintf("N%dpp", uint8(k)) }

// RatedPE is the endurance rating of the paper's TLC parts (1K P/E
// cycles), the wear the retention model's normalization is anchored to.
const RatedPE = 1000

// retentionModel is the subpage-aware NAND retention model constructed in
// the paper's §3.3 from 2x-nm TLC characterization (81,920 pages over 20
// chips). It expresses the retention BER of a subpage, normalized to the
// endurance BER of an N⁰pp-type subpage right after RatedPE P/E cycles, as
// a function of:
//
//   - the subpage's N^k_pp type (more prior passes → higher BER and a
//     steeper growth with retention time),
//   - the retention age of the data,
//   - the block's P/E wear.
//
// Calibration points taken from the paper:
//
//   - right after 1K P/E cycles, N³pp BER is 41 % above N⁰pp;
//   - an N³pp subpage satisfies a 1-month retention requirement but fails
//     a 2-month requirement (uncorrectable);
//   - N⁰pp (full-page) data satisfies the commercial JEDEC requirement of
//     1 year;
//   - the conservative FTL-facing summary: "each subpage can hold its data
//     properly for one month only."
type retentionModel struct {
	// Base[k] is the normalized retention BER of an N^k_pp subpage right
	// after cycling, i.e. at age 0.
	Base [4]float64
	// SlopePerMonth[k] is the normalized BER growth per month of retention
	// for an N^k_pp subpage. ESP-damaged cells leak faster, so the slope
	// rises steeply with k.
	SlopePerMonth [4]float64
	// NormalizedECCLimit is the "Maximum ECC limit" line of Fig. 5 in the
	// same normalized unit.
	NormalizedECCLimit float64
	// ShallowPenalty scales the retention-BER cost of a shallow erase
	// (AERO, arXiv 2404.10355): data programmed into a block whose last
	// erase had depth d carries a multiplicative BER factor
	// 1 + ShallowPenalty*(1-d).
	ShallowPenalty float64
}

// model is the calibrated retention model of the simulated part. With
// these values: N³pp/N⁰pp at age 0 is exactly 1.41; N³pp crosses the ECC
// limit between month 1 and month 2; N⁰pp crosses it just past 12 months.
// The values are a variable rather than constants so that every
// expression below evaluates in float64 operand by operand.
var model = retentionModel{
	Base:               [4]float64{1.00, 1.15, 1.28, 1.41},
	SlopePerMonth:      [4]float64{0.11, 0.75, 0.85, 0.95},
	NormalizedECCLimit: 2.40,
	ShallowPenalty:     0.8,
}

// clampNpp folds pass counts beyond the characterized range onto the worst
// characterized type. With 4 subpages per page at most N³pp occurs, but the
// model stays safe for exotic geometries.
func clampNpp(k NppType) int {
	if k > 3 {
		return 3
	}
	return int(k)
}

// NormalizedECCLimit returns the model's ECC limit, the "Maximum ECC
// limit" line of Fig. 5, in normalized-BER units.
func NormalizedECCLimit() float64 { return model.NormalizedECCLimit }

// wearFactor scales the normalized BER for a block of the given effective
// wear: with adaptive erase a block's stress is the sum of its erase depths
// (deep-erase equivalents), so a block erased pe times at full depth has
// wear float64(pe). The normalization anchor is RatedPE (factor 1.0);
// fresh blocks are more reliable and worn blocks less so. The linear form
// is a first-order fit of the endurance curves in the DEVTS work the paper
// cites for its BER metric.
func wearFactor(wear float64) float64 {
	f := 0.5 + 0.5*wear/float64(RatedPE)
	if f < 0.5 {
		f = 0.5
	}
	return f
}

// shallowFactor is the multiplicative retention-BER penalty carried by data
// programmed into a block whose last erase had the given depth. Full-depth
// erases (and the depth-0 zero value of a never-erased block) cost factor
// 1 exactly, keeping the conventional path bit-identical.
func shallowFactor(d EraseDepth) float64 {
	if d <= 0 || d >= DepthFull {
		return 1
	}
	return 1 + model.ShallowPenalty*float64(DepthFull-d)
}

// ShallowDepth inverts the shallow-erase penalty: it returns the erase
// depth at which the penalty factor is exactly factor (1 at full depth,
// below it for a larger factor), unclamped to the depths the device
// accepts.
func ShallowDepth(factor float64) float64 {
	return 1 - (factor-1)/model.ShallowPenalty
}

// NormalizedBER returns the retention BER of an N^k_pp subpage after age of
// retention on a block of the given effective wear whose last erase had the
// given depth, in units of the endurance BER of an N⁰pp subpage at RatedPE
// full-depth cycles.
func NormalizedBER(k NppType, age time.Duration, wear float64, depth EraseDepth) float64 {
	return ageBER(k, age) * wearFactor(wear) * shallowFactor(depth)
}

// ageBER is the first factor of NormalizedBER, the only one that varies
// between the slots of a block: a page read multiplies it by the block's
// wearFactor and shallowFactor, computed once, in the same order.
func ageBER(k NppType, age time.Duration) float64 {
	i := clampNpp(k)
	months := float64(age) / float64(Month)
	if months < 0 {
		months = 0
	}
	return model.Base[i] + model.SlopePerMonth[i]*months
}

// Correctable reports whether data of the given type and age, on a block of
// the given effective wear and last erase depth, is still within the ECC
// limit (the deterministic decision the simulator uses).
func Correctable(k NppType, age time.Duration, wear float64, depth EraseDepth) bool {
	return NormalizedBER(k, age, wear, depth) <= model.NormalizedECCLimit
}

// RetentionCapability returns how long an N^k_pp subpage on a block of the
// given effective wear and last erase depth can hold data before crossing
// the ECC limit. A zero return means data is unreadable immediately (e.g. a
// destroyed subpage or an extremely worn block).
func RetentionCapability(k NppType, wear float64, depth EraseDepth) time.Duration {
	i := clampNpp(k)
	w := wearFactor(wear) * shallowFactor(depth)
	budget := model.NormalizedECCLimit/w - model.Base[i]
	if budget <= 0 {
		return 0
	}
	months := budget / model.SlopePerMonth[i]
	return time.Duration(months * float64(Month))
}

// MaxShallowFactor returns the largest shallow-erase BER factor under which
// an N^k_pp subpage programmed onto a block at the given effective wear
// still meets the horizon retention requirement. It inverts NormalizedBER
// for the depth policy: a depth d is admissible iff its shallow-erase
// factor stays at or below this bound. A return below 1 means even a
// full-depth erase cannot meet the requirement (the block is past its
// retention life for this subpage type).
func MaxShallowFactor(k NppType, horizon time.Duration, wear float64) float64 {
	i := clampNpp(k)
	months := float64(horizon) / float64(Month)
	if months < 0 {
		months = 0
	}
	need := (model.Base[i] + model.SlopePerMonth[i]*months) * wearFactor(wear)
	return model.NormalizedECCLimit / need
}

// RawBER converts a normalized BER to a raw bit error rate for the given
// ECC code, anchoring the normalized ECC limit to the code's maximum
// correctable BER. This lets the reliability experiments express the model
// in physical units.
func RawBER(code ecc.Code, normalized float64) float64 {
	return normalized * code.MaxBER() / model.NormalizedECCLimit
}

// AgeOf is a small helper converting a program timestamp and the current
// virtual time to a retention age.
func AgeOf(programmedAt, now sim.Time) time.Duration {
	if now <= programmedAt {
		return 0
	}
	return now.Sub(programmedAt)
}
