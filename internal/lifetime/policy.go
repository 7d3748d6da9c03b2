// Package lifetime is the device-lifetime subsystem layered on top of the
// paper's erase-free subpage programming: it decides how deep each erase
// needs to be (adaptive erase, after AERO, arXiv 2404.10355) and predicts
// how long freshly written data will live (longevity-aware placement,
// after Choi & Jung, arXiv 1704.05138) so the FTLs can steer writes by
// expected lifetime instead of request size alone. Both mechanisms are
// policy objects consulted by the block manager and the FTL cores, and the
// paper's own behaviour is one configuration of each: FixedDeep erases
// every block at full depth, SizeRouted places every write by its size.
package lifetime

import (
	"fmt"
	"time"

	"espftl/internal/nand"
)

// ErasePolicy chooses the depth of the next erase of a block from its wear
// state. The block manager consults it at recycle time.
type ErasePolicy interface {
	// Name identifies the policy in stats and experiment tables.
	Name() string
	// Depth returns the erase depth for a block with the given effective
	// wear (deep-erase equivalents).
	Depth(effWear float64) nand.EraseDepth
}

// FixedDeep is the paper's erase: every erase runs at full depth. It is
// the policy a block manager holds unless given another.
type FixedDeep struct{}

// Name implements ErasePolicy.
func (FixedDeep) Name() string { return "fixed-deep" }

// Depth implements ErasePolicy.
func (FixedDeep) Depth(float64) nand.EraseDepth { return nand.DepthFull }

// AERO is the adaptive policy: it erases as shallowly as the block's wear
// allows while analytically guaranteeing every retention requirement. The
// shallow-erase BER factor S(d) = 1 + penalty*(1-d) must stay under the
// tightest MaxShallowFactor bound across the requirements, evaluated at
// the block's post-erase wear; as effective wear approaches the rated
// life the bound collapses to 1 and the policy converges to full-depth
// erases by itself. The guarantee is computed against the device's fixed
// retention model, so AERO carries no state.
type AERO struct{}

// aeroRequire is AERO's operating envelope, the retention obligations
// every depth it picks must preserve: worst-case N³pp subpage data for
// the paper's 1-month subpage horizon, and N⁰pp full-page data for the
// JEDEC-style 12-month requirement.
var aeroRequire = [...]struct {
	npp     nand.NppType
	horizon time.Duration
}{
	{npp: 3, horizon: nand.Month},
	{npp: 0, horizon: 12 * nand.Month},
}

const (
	// aeroMargin derates the analytic bound (a bound of S must be met at
	// aeroMargin*S) so model noise never lands data exactly on the ECC
	// limit.
	aeroMargin = 0.90
	// aeroFloor is the shallowest depth the policy will ever pick.
	aeroFloor = nand.MinEraseDepth
)

// NewAERO returns the adaptive policy.
func NewAERO() *AERO { return &AERO{} }

// Name implements ErasePolicy.
func (*AERO) Name() string { return "aero" }

// depthSteps quantizes chosen depths to 1/16ths (rounding deeper), the
// granularity a real pulse-train controller would expose.
const depthSteps = 16

// Depth implements ErasePolicy.
func (*AERO) Depth(effWear float64) nand.EraseDepth {
	// Worst-case post-erase wear: the erase about to happen adds at most
	// one deep-erase equivalent.
	wear := effWear + 1
	sAllow := 0.0
	for i, r := range aeroRequire {
		s := nand.MaxShallowFactor(r.npp, r.horizon, wear) * aeroMargin
		if i == 0 || s < sAllow {
			sAllow = s
		}
	}
	if sAllow <= 1 {
		return nand.DepthFull
	}
	// Invert S(d) = 1 + penalty*(1-d) <= sAllow for the shallowest
	// admissible depth, then round deeper onto the pulse-train grid.
	d := nand.ShallowDepth(sAllow)
	if d < float64(aeroFloor) {
		d = float64(aeroFloor)
	}
	steps := float64(int(d*depthSteps)) / depthSteps
	if steps < d {
		steps += 1.0 / depthSteps
	}
	if steps >= 1 {
		return nand.DepthFull
	}
	return nand.EraseDepth(steps)
}

// NewErasePolicy resolves a policy by its Name ("fixed-deep" or "aero";
// empty picks the fixed-deep baseline).
func NewErasePolicy(name string) (ErasePolicy, error) {
	switch name {
	case "", "fixed-deep":
		return FixedDeep{}, nil
	case "aero":
		return NewAERO(), nil
	}
	return nil, fmt.Errorf("lifetime: unknown erase policy %q (want fixed-deep or aero)", name)
}
