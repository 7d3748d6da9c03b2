package core

import (
	"fmt"

	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// scrubRetention evicts subpages whose data has stayed in the subpage
// region longer than the configured threshold (paper §4.3): ESP-written
// subpages hold data reliably for one month only, so subFTL moves anything
// older than 15 days to the full-page region, whose N⁰pp pages meet the
// commercial retention requirement.
func (f *FTL) scrubRetention(now sim.Time) error {
	type entry struct{ lsn, spn int64 }
	var old []entry
	threshold := f.cfg.RetentionThreshold
	f.hash.Range(func(lsn, spn int64) bool {
		if nand.AgeOf(f.writtenAt[spn], now) > threshold || f.nearExpiry(spn, now) {
			old = append(old, entry{lsn, spn})
		}
		return true
	})
	for _, e := range old {
		// The entry may have moved since Range snapshotted it; re-check.
		spn, ok := f.hash.Get(e.lsn)
		if !ok || spn != e.spn {
			continue
		}
		overThreshold := nand.AgeOf(f.writtenAt[spn], now) > threshold
		if !overThreshold && !f.nearExpiry(spn, now) {
			continue
		}
		// Stale entries (newest version still in the write buffer) go
		// through the same eviction: dropping the copy would leave the
		// sector with no durable incarnation (see stale), and evictToFull
		// verifies against verAt — the version physically on flash — so
		// the check holds for them too.
		if err := f.evictToFull(e.lsn, spn); err != nil {
			return err
		}
		if overThreshold {
			f.Counters.RetentionMoves++
		} else {
			f.Counters.ScrubRewrites++
		}
	}
	return nil
}

// nearExpiry reports whether the subpage at spn will cross its physical
// retention capability — on its block's current wear — within the next two
// scrub intervals. The two-interval margin guarantees the rewrite lands
// before the data turns uncorrectable even if one scrub pass is missed.
// On lightly worn blocks the capability comfortably exceeds the 15-day
// threshold, so this only fires ahead of the threshold near end of life.
func (f *FTL) nearExpiry(spn int64, now sim.Time) bool {
	g := f.Dev.Geometry()
	info := f.Dev.SubpageInfo(nand.SubpageID(spn))
	blk := g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn)))
	// Effective wear and the block's last erase depth, not the raw erase
	// count: a shallow-erased block ages its data faster than its count
	// suggests, and the scrub must rewrite before that earlier expiry.
	capability := f.Dev.Retention().RetentionCapabilityAt(info.Npp, f.Dev.EffectiveWear(blk), f.Dev.LastEraseDepth(blk))
	return nand.AgeOf(f.writtenAt[spn], now)+2*f.cfg.ScrubInterval > capability
}

// Check implements ftl.FTL: it verifies the full-page region's invariants
// plus the subpage region's.
func (f *FTL) Check() error {
	if err := f.full.Check(); err != nil {
		return err
	}
	g := f.Dev.Geometry()
	perBlock := make(map[nand.BlockID]int)
	var checkErr error
	f.hash.Range(func(lsn, spn int64) bool {
		if f.rmapSub[spn] != lsn {
			checkErr = fmt.Errorf("core: rmapSub[%d] = %d, want %d", spn, f.rmapSub[spn], lsn)
			return false
		}
		p := g.PageOfSubpage(nand.SubpageID(spn))
		b := g.BlockOfPage(p)
		perBlock[b]++
		if f.Man.Role(b) != ftl.RoleSub {
			checkErr = fmt.Errorf("core: live subpage on block %d with role %v", b, f.Man.Role(b))
			return false
		}
		// The device must agree the subpage is readable (not destroyed by
		// a later ESP pass — the safety property of the writing policy).
		info := f.Dev.SubpageInfo(nand.SubpageID(spn))
		if !info.Programmed || info.Destroyed {
			checkErr = fmt.Errorf("core: live subpage %d of lsn %d is physically %+v", spn, lsn, info)
			return false
		}
		// A sector must not be live in both regions.
		if f.full.Holds(lsn) {
			checkErr = fmt.Errorf("core: lsn %d live in both regions", lsn)
			return false
		}
		return true
	})
	if checkErr != nil {
		return checkErr
	}
	subCount := 0
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if f.Man.State(id) == ftl.StateBad {
			// Retired and drained: no live data, no region bookkeeping.
			if perBlock[id] != 0 {
				return fmt.Errorf("core: retired block %d holds %d live subpages", id, perBlock[id])
			}
			continue
		}
		if f.Man.State(id) != ftl.StateFree && f.Man.Role(id) == ftl.RoleSub {
			subCount++
			if got, want := f.Man.Valid(id), perBlock[id]; got != want {
				return fmt.Errorf("core: sub block %d valid = %d, want %d", id, got, want)
			}
			mb := &f.meta[id]
			if !mb.inUse {
				return fmt.Errorf("core: live sub block %d has no metadata", id)
			}
			for pi, ni := range mb.nextIdx {
				if int(ni) < mb.round || int(ni) > f.PageSecs {
					return fmt.Errorf("core: sub block %d page %d nextIdx %d outside [round %d, %d]", id, pi, ni, mb.round, f.PageSecs)
				}
			}
		} else if perBlock[id] != 0 {
			return fmt.Errorf("core: non-sub block %d holds %d live subpages", id, perBlock[id])
		}
	}
	if subCount != f.subBlocks {
		return fmt.Errorf("core: subBlocks = %d, found %d", f.subBlocks, subCount)
	}
	if f.wbSet {
		if !f.meta[f.wb].inUse || f.Man.Role(f.wb) != ftl.RoleSub || f.Man.State(f.wb) != ftl.StateOpen {
			return fmt.Errorf("core: write block %d is not an open region block (state %v)", f.wb, f.Man.State(f.wb))
		}
		if f.gcDestSet && f.wb == f.gcDest {
			return fmt.Errorf("core: write block %d is also the GC destination", f.wb)
		}
	}
	// The hash table must not exceed its design bound: one live entry per
	// subpage-region slot (multi-subpage passes can leave several live
	// subpages in one page until its next pass).
	if f.hash.Len() > f.subBlocks*g.SubpagesPerBlock() {
		return fmt.Errorf("core: %d hash entries exceed %d region slots", f.hash.Len(), f.subBlocks*g.SubpagesPerBlock())
	}
	return nil
}
