package ecc

import "math"

// The controller's stepped read-retry mechanism: when a sense fails to
// decode, the controller re-reads the page with shifted read reference
// voltages, each step recovering part of the raw bit error rate (Cai et
// al. report retention errors are dominated by a systematic
// threshold-voltage shift that reference tuning tracks). Five steps at
// 15 % relief each let the deepest retry reach data at roughly 2.25x the
// plain ECC limit.
const (
	// MaxRetries is the per-read retry-step budget (K).
	MaxRetries = 5
	// ReliefPerStep is the fraction of the remaining raw BER each
	// reference shift recovers.
	ReliefPerStep = 0.15
)

// RetryBER returns the effective BER after step retry steps (step 0 is the
// original sense). The model is multiplicative: step i leaves
// ber * (1-ReliefPerStep)^i.
func RetryBER(ber float64, step int) float64 {
	if step <= 0 {
		return ber
	}
	return ber * math.Pow(1-ReliefPerStep, float64(step))
}
