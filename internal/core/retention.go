package core

import (
	"fmt"
	"time"

	"espftl/internal/ftl"
	"espftl/internal/mapping"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

const (
	// retentionThreshold is the age at which the retention manager evicts
	// a subpage to the full-page region (paper §4.3: 15 days).
	retentionThreshold = 15 * 24 * time.Hour
	// scrubInterval is how often the retention manager scans (the paper
	// checks continuously; a daily scan is equivalent at these scales).
	scrubInterval = 24 * time.Hour
)

// scrubRetention evicts subpages whose data has stayed in the subpage
// region longer than retentionThreshold (paper §4.3): ESP-written
// subpages hold data reliably for one month only, so subFTL moves anything
// older than 15 days to the full-page region, whose N⁰pp pages meet the
// commercial retention requirement.
func (f *FTL) scrubRetention(now sim.Time) error {
	type entry struct{ lsn, spn int64 }
	var old []entry
	f.hash.Range(func(lsn, spn int64) bool {
		if nand.AgeOf(f.slots.writtenAt[f.at(spn)], now) > retentionThreshold || f.nearExpiry(spn, now) {
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
		overThreshold := nand.AgeOf(f.slots.writtenAt[f.at(spn)], now) > retentionThreshold
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
	info := f.Dev.SubpageInfo(nand.SubpageID(spn))
	blk, off := f.Dev.BlockOfSubpage(nand.SubpageID(spn))
	// Effective wear and the block's last erase depth, not the raw erase
	// count: a shallow-erased block ages its data faster than its count
	// suggests, and the scrub must rewrite before that earlier expiry.
	capability := nand.RetentionCapability(info.Npp, f.Dev.EffectiveWear(blk), f.Dev.LastEraseDepth(blk))
	return nand.AgeOf(f.slots.writtenAt[f.base(blk)+off], now)+2*scrubInterval > capability
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
		b, off := f.Dev.BlockOfSubpage(nand.SubpageID(spn))
		perBlock[b]++
		if f.Man.Role(b) != ftl.RoleSub || !f.meta[b].inUse {
			checkErr = fmt.Errorf("core: live subpage on block %d with role %v outside the region", b, f.Man.Role(b))
			return false
		}
		if got := int64(f.slots.rmap[f.base(b)+off]); got != lsn {
			checkErr = fmt.Errorf("core: reverse entry of spn %d = %d, want %d", spn, got, lsn)
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
			for pi, ni := range f.slots.pageIdx(mb.slot) {
				if int(ni) < mb.round || int(ni) > f.PageSecs {
					return fmt.Errorf("core: sub block %d page %d nextIdx %d outside [round %d, %d]", id, pi, ni, mb.round, f.PageSecs)
				}
				// A page the region has programmed is one the device has,
				// unless its block was retired mid-pass.
				if passes := f.Dev.PagePasses(g.PageOf(id, pi)); (passes == 0) != (ni == 0) && !f.Man.Bad(id) {
					return fmt.Errorf("core: sub block %d page %d has nextIdx %d after %d program passes", id, pi, ni, passes)
				}
			}
		} else if perBlock[id] != 0 {
			return fmt.Errorf("core: non-sub block %d holds %d live subpages", id, perBlock[id])
		}
	}
	if subCount != f.subBlocks {
		return fmt.Errorf("core: subBlocks = %d, found %d", f.subBlocks, subCount)
	}
	if err := f.checkSlots(); err != nil {
		return err
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

// checkSlots verifies the region slot table: every region block holds
// exactly one slot, no two blocks share a slot, a held slot's reverse
// entries are the hash's mappings (survivorsIn reads liveness off them
// alone), and a free slot holds no block and no reverse entry.
func (f *FTL) checkSlots() error {
	r := &f.slots
	inUse := 0
	for b := range f.meta {
		mb := &f.meta[b]
		if !mb.inUse {
			continue
		}
		inUse++
		// Two blocks claiming one slot cannot both be its owner.
		if mb.slot < 0 || int(mb.slot) >= len(r.owner) || r.owner[mb.slot] != nand.BlockID(b) {
			return fmt.Errorf("core: region block %d claims slot %d it does not hold", b, mb.slot)
		}
	}
	if inUse != f.subBlocks {
		return fmt.Errorf("core: %d region blocks in the metadata, want %d", inUse, f.subBlocks)
	}
	held := 0
	for s, b := range r.owner {
		if b < 0 {
			continue
		}
		held++
		if mb := &f.meta[b]; !mb.inUse || int(mb.slot) != s {
			return fmt.Errorf("core: slot %d held by block %d, which is not in the region at that slot", s, b)
		}
		for i, l := range r.rmap[s*r.perBlock : (s+1)*r.perBlock] {
			if lsn := int64(l); lsn != mapping.None {
				if spn, ok := f.hash.Get(lsn); !ok || spn != int64(b)*int64(r.perBlock)+int64(i) {
					return fmt.Errorf("core: block %d offset %d keeps lsn %d, which the hash maps to %d (live %v)", b, i, lsn, spn, ok)
				}
			}
		}
	}
	if held+len(r.free) != len(r.owner) {
		return fmt.Errorf("core: %d slots held and %d free of %d", held, len(r.free), len(r.owner))
	}
	seen := make([]bool, len(r.owner))
	for _, s := range r.free {
		if r.owner[s] >= 0 || seen[s] {
			return fmt.Errorf("core: free slot %d is held by block %d or stacked twice", s, r.owner[s])
		}
		seen[s] = true
		for i, l := range r.rmap[int(s)*r.perBlock : int(s+1)*r.perBlock] {
			if int64(l) != mapping.None {
				return fmt.Errorf("core: free slot %d keeps lsn %d at offset %d", s, l, i)
			}
		}
	}
	return nil
}
