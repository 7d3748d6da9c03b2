package nand

import "time"

// The timing of the flash subsystem. The program latencies are the paper's
// measured values (§5): programming a 4-KB subpage is faster than a full
// 16-KB page because fewer bit lines are precharged during verify-read and
// a shorter word-line segment is driven to the high program voltage. The
// read and erase latencies are typical 2x-nm TLC datasheet values.
const (
	// tReadPage is the array-to-page-buffer sensing time for a full page.
	tReadPage time.Duration = 220 * time.Microsecond
	// tReadSubpage is the sensing time for a single subpage, used only
	// when Config.EnableSubpageRead is set (the paper's §7 future-work
	// extension).
	tReadSubpage time.Duration = 90 * time.Microsecond
	// tProgPage is tPROG for a full-page program.
	tProgPage time.Duration = 1600 * time.Microsecond
	// tProgSubpage is tPROG for an ESP subpage program.
	tProgSubpage time.Duration = 1300 * time.Microsecond
	// tErase is tBERS for a full-depth block erase.
	tErase time.Duration = 5 * time.Millisecond
	// busBytesPerSec is the channel transfer rate between the controller
	// and the page buffer (an ONFI-class bus).
	busBytesPerSec int64 = 400 << 20
)

// eraseTime returns tBERS for an erase of the given depth. The erase pulse
// train is cut proportionally short, so latency scales linearly with depth;
// a full-depth erase costs exactly tErase.
func eraseTime(d EraseDepth) time.Duration {
	if d >= DepthFull {
		return tErase
	}
	return time.Duration(float64(tErase) * float64(d))
}

// transferTime returns the channel bus time for moving n bytes.
func transferTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(int64(n) * int64(time.Second) / busBytesPerSec)
}

// programTime returns tPROG for one pass that programs k of the nsub
// subpages of a page. The paper explains why a 1-subpage pass is faster
// than a full-page program (fewer bit lines precharged in verify-reads,
// a shorter word-line segment driven to Vpgm); the cost interpolates
// linearly in the subpage count up to the full-page latency.
func programTime(k, nsub int) time.Duration {
	if k <= 1 || nsub <= 1 {
		return tProgSubpage
	}
	if k >= nsub {
		return tProgPage
	}
	span := tProgPage - tProgSubpage
	return tProgSubpage + span*time.Duration(k-1)/time.Duration(nsub-1)
}
