package core

import (
	"fmt"

	"espftl/internal/ftl"
	"espftl/internal/nand"
)

// Recover implements ftl.FTL: one OOB scan rebuilds both regions' state
// after a sudden power-off. Scanned blocks dispatch by region tag — TagSub
// blocks rebuild the subpage hash map, reverse map, per-subpage versions
// and retention clocks plus the per-block round/nextIdx bookkeeping;
// everything else goes to the full-page store. A logical sector with valid
// copies in both regions resolves to the copy with the highest program
// sequence number: the subpage winner is adopted only when it outruns every
// full-region copy, and the store skips every copy of a sector the subpage
// region won (they are necessarily older). Pages whose program was cut
// mid-operation are quarantined by setting the page's nextIdx past the last
// round, so no future pass ever touches the torn cells; their block drains
// through normal GC. The hot/cold bits and the staging buffer are RAM-only
// and restart cold — recovery treats every survivor as cold, which costs at
// most one extra eviction per sector, never correctness.
func (f *FTL) Recover() (ftl.MountReport, error) {
	return f.Mount(f.rebuild)
}

// rebuild is subFTL's half of a mount, over the scanned blocks.
func (f *FTL) rebuild(blocks []ftl.ScannedBlock, rep *ftl.MountReport) error {
	g := f.Dev.Geometry()
	var subBlocks, fullBlocks []ftl.ScannedBlock
	for _, blk := range blocks {
		if blk.Tag == ftl.TagSub {
			subBlocks = append(subBlocks, blk)
		} else {
			fullBlocks = append(fullBlocks, blk)
		}
	}

	// Highest full-region sequence per sector: a subpage copy is live only
	// if it is newer than every full-page copy of the same sector.
	fullSeq := make(map[int64]uint64)
	for _, blk := range fullBlocks {
		for _, slots := range blk.Pages {
			for slot, sl := range slots {
				if sl.State != nand.OOBValid || sl.OOB.Stamp.IsPadding() {
					continue
				}
				lsn := sl.OOB.Stamp.LSN
				if lsn < 0 || lsn >= f.Ver.Size() || int(lsn%int64(f.PageSecs)) != slot {
					continue
				}
				if sl.OOB.Seq > fullSeq[lsn] {
					fullSeq[lsn] = sl.OOB.Seq
				}
			}
		}
	}

	// Subpage-region pass: pick the newest valid copy per sector, rebuild
	// per-block ESP bookkeeping, and quarantine torn pages.
	type subWinner struct {
		spn int64
		oob nand.OOB
	}
	win := make(map[int64]subWinner)
	for _, blk := range subBlocks {
		mb := subBlock{
			nextIdx: f.freshNextIdx(blk.Block),
			inUse:   true,
		}
		round := f.PageSecs
		for pi, slots := range blk.Pages {
			p := g.PageOf(blk.Block, pi)
			programmed, torn := 0, false
			for slot, sl := range slots {
				if sl.State != nand.OOBErased {
					programmed = slot + 1
				}
				if sl.State == nand.OOBTorn {
					torn = true
				}
				if sl.State != nand.OOBValid || sl.OOB.Stamp.IsPadding() {
					continue
				}
				lsn := sl.OOB.Stamp.LSN
				if lsn < 0 || lsn >= f.Ver.Size() {
					continue
				}
				if sl.OOB.Seq <= fullSeq[lsn] {
					rep.StaleSubpages++
					continue
				}
				spn := int64(g.SubpageOf(p, slot))
				if w, ok := win[lsn]; !ok || sl.OOB.Seq > w.oob.Seq {
					if ok {
						rep.StaleSubpages++
					}
					win[lsn] = subWinner{spn: spn, oob: sl.OOB}
				} else {
					rep.StaleSubpages++
				}
			}
			if torn {
				// Never program this page again: its torn cells would turn
				// a future pass into silent corruption.
				programmed = f.PageSecs
			}
			mb.nextIdx[pi] = uint8(programmed)
			if programmed < round {
				round = programmed
			}
		}
		mb.round = round
		f.meta[blk.Block] = mb
		f.subBlocks++
	}
	perBlock := make(map[nand.BlockID]int)
	for lsn, w := range win {
		// Only the winning copy re-seeds the version tracker: a stale copy
		// can out-version the winner (trim resets the counter), and the read
		// path verifies stamps against ver.Current.
		f.Ver.Restore(lsn, w.oob.Stamp.Version)
		if err := f.hash.Put(lsn, w.spn); err != nil {
			return fmt.Errorf("core: recovering lsn %d: %w", lsn, err)
		}
		f.rmapSub[w.spn] = lsn
		f.verAt[w.spn] = w.oob.Stamp.Version
		f.writtenAt[w.spn] = w.oob.ProgrammedAt
		perBlock[g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(w.spn)))]++
		rep.LiveSectors++
	}
	for _, blk := range subBlocks {
		if err := f.Man.Adopt(blk.Block, ftl.RoleSub, perBlock[blk.Block]); err != nil {
			return err
		}
		rep.BlocksAdopted++
	}

	// Full-page store pass: every sector the subpage region won is
	// superseded there regardless of which full copy the store picks.
	return f.full.Recover(fullBlocks, func(lsn int64, seq uint64) bool {
		_, ok := win[lsn]
		return ok
	}, rep)
}

// VersionOf implements ftl.VersionProber: the version a read of lsn would
// return, 0 when no live copy exists in the buffer or either region.
func (f *FTL) VersionOf(lsn int64) uint32 {
	if lsn < 0 || lsn >= f.Ver.Size() {
		return 0
	}
	if _, ok := f.hash.Get(lsn); ok || f.buf.Contains(lsn) || f.full.Holds(lsn) {
		return f.Ver.Current(lsn)
	}
	return 0
}
