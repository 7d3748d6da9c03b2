package core

import (
	"errors"
	"fmt"

	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/mapping"
	"espftl/internal/nand"
)

// initSubBlock prepares bookkeeping for a block entering the subpage
// region at round 0.
func (f *FTL) initSubBlock(b nand.BlockID) {
	f.meta[b] = subBlock{
		round:   0,
		cursor:  0,
		nextIdx: f.freshNextIdx(b),
		inUse:   true,
	}
	f.subBlocks++
}

// recycleSub erases region block b and takes it out of the region.
func (f *FTL) recycleSub(b nand.BlockID) error {
	if err := f.Man.Recycle(b); err != nil {
		return err
	}
	f.meta[b] = subBlock{}
	f.subBlocks--
	return nil
}

// freshNextIdx returns block b's zeroed per-page nextIdx array. The arrays
// of all blocks are one slab: any block may enter the region (roles are
// assigned at program time), one does on every region collection, and a
// per-entry allocation would sit on the write path.
func (f *FTL) freshNextIdx(b nand.BlockID) []uint8 {
	n := f.Dev.Geometry().PagesPerBlock
	idx := f.nextIdxSlab[int(b)*n : (int(b)+1)*n : (int(b)+1)*n]
	clear(idx)
	return idx
}

// slotChip is the chip a rotation slot takes its blocks from.
func (f *FTL) slotChip(slot int) int {
	return slot * f.Dev.Geometry().Chips() / f.width
}

// stale reports whether the flash copy at spn no longer carries lsn's
// newest version — a fresher copy is staged in the write buffer or is the
// in-flight write that triggered this relocation. A stale copy must NOT be
// dropped: the newer data lives only in controller RAM, so until it reaches
// flash this copy is the sector's newest durable incarnation — destroying
// its cells (the completed pass or the victim erase that follows every
// relocation) would turn a power cut into a lost acknowledged write.
// Relocation therefore evicts stale copies to the full-page region. Like
// any rewrite, the eviction stamps the sector's current version — the same
// accepted imprecision as full-page GC over buffered data — so the sector
// keeps an on-flash incarnation at an acknowledged version until the
// buffer's own flush path supersedes it.
func (f *FTL) stale(lsn, spn int64) bool {
	return f.verAt[spn] != f.Ver.Current(lsn)
}

// liveAt returns the live logical sector stored in slot sub of page p, if
// any.
func (f *FTL) liveAt(p nand.PageID, sub int) (lsn, spn int64, ok bool) {
	g := f.Dev.Geometry()
	cand := int64(g.SubpageOf(p, sub))
	l := f.rmapSub[cand]
	if l == mapping.None {
		return 0, 0, false
	}
	if got, live := f.hash.Get(l); live && got == cand {
		return l, cand, true
	}
	return 0, 0, false
}

// survivor is a live subpage encountered during relocation.
type survivor struct {
	lsn, spn int64
	slot     int
}

// survivorsIn returns the live subpages of page p in slots [0, limit).
// Stale copies are survivors too (see stale): until their volatile
// successor lands on flash they carry the sector's durable state. The
// result is FTL-owned scratch, valid until the next survivorsIn call;
// both callers consume it before anything downstream can re-enter.
func (f *FTL) survivorsIn(p nand.PageID, limit int) []survivor {
	out := f.survivorsBuf[:0]
	for s := 0; s < limit; s++ {
		lsn, spn, ok := f.liveAt(p, s)
		if !ok {
			continue
		}
		out = append(out, survivor{lsn: lsn, spn: spn, slot: s})
	}
	f.survivorsBuf = out
	return out
}

// keepsHot is relocation's hot/cold split: it reports whether survivor sv
// shifts within the subpage region rather than being evicted to the
// full-page region. Only an updated survivor qualifies (the paper's §4.2
// heuristic), only with the split enabled, and never a stale one (see
// stale).
func (f *FTL) keepsHot(sv survivor) bool {
	return !f.stale(sv.lsn, sv.spn) && f.updated[sv.lsn] && !f.cfg.DisableHotColdGC
}

// nextEligible returns the next page of the writing policy that can take
// a program pass at its block's current round, from the open write block.
// An exhausted write block is refilled on the chip of rotation slot rr:
// with a fresh block while the region quota allows, else by advancing the
// round of the best candidate block, and finally by garbage-collecting.
func (f *FTL) nextEligible() (nand.PageID, *subBlock, int, error) {
	g := f.Dev.Geometry()
	maxAttempts := 2*f.subQuota*f.PageSecs + 64
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if f.wbSet {
			mb := &f.meta[f.wb]
			for mb.cursor < g.PagesPerBlock {
				pi := mb.cursor
				if int(mb.nextIdx[pi]) == mb.round {
					f.rr = (f.wbSlot + 1) % f.width
					return g.PageOf(f.wb, pi), mb, pi, nil
				}
				mb.cursor++
			}
			// The write block is exhausted at its round; rr stays put.
			f.wbSet = false
			if mb.round == f.PageSecs-1 {
				f.Man.MarkFull(f.wb)
			}
		}
		slot := f.rr
		chip := f.slotChip(slot)
		if f.subBlocks < f.subQuota {
			// One attempt at the pool's gate makes the full-page region,
			// which holds the spare space, give a block back; a pool still
			// at its floor leaves the other ways forward.
			admitted, err := f.full.TryAdmit()
			if err != nil {
				return 0, nil, 0, err
			}
			if admitted {
				if b, ok := f.Man.AllocOnChip(ftl.RoleSub, chip); ok {
					f.initSubBlock(b)
					f.wb, f.wbSet, f.wbSlot = b, true, slot
					continue
				}
			}
		}
		if b, ok := f.pickAdvance(chip); ok {
			f.advanceRound(b)
			f.wb, f.wbSet, f.wbSlot = b, true, slot
			continue
		}
		// One whole region collection (paper §4.2), a preempted victim
		// first. No victim means the region is too small to hold one beside
		// its GC destination: it grows instead.
		if err := f.subCol.Collect(f.subTarget); err != nil {
			if !errors.Is(err, gc.ErrNoVictim) {
				return 0, nil, 0, err
			}
			b, err := f.growSub(chip)
			if err != nil {
				return 0, nil, 0, err
			}
			f.wb, f.wbSet, f.wbSlot = b, true, slot
		}
	}
	return 0, nil, 0, fmt.Errorf("core: subpage slot allocation made no progress: %s", f.debugState())
}

// debugState renders the subpage region's state for policy-bug reports.
func (f *FTL) debugState() string {
	s := fmt.Sprintf("subBlocks=%d quota=%d free=%d reserve=%d wbSet=%v gcDestSet=%v;",
		f.subBlocks, f.subQuota, f.Man.FreeCount(), f.cfg.GCReserveBlocks, f.wbSet, f.gcDestSet)
	for b := range f.meta {
		if mb := &f.meta[b]; mb.inUse {
			id := nand.BlockID(b)
			s += fmt.Sprintf(" blk%d[st=%d rd=%d cur=%d val=%d]", b, f.Man.State(id), mb.round, mb.cursor, f.Man.Valid(id))
		}
	}
	return s
}

// pickAdvance selects the round-advance candidate: the non-terminal
// subpage block with the fewest valid subpages ("a block with only
// obsolete subpages ... if subFTL cannot find [one], a block with the
// smallest number of valid subpages"). Blocks with more valid subpages
// than pages are excluded: advancing one would be mostly relocation for
// little yield, and GC — which actually removes data from the region —
// handles that case.
func (f *FTL) pickAdvance(preferChip int) (nand.BlockID, bool) {
	g := f.Dev.Geometry()
	best, bestValid, found := nand.BlockID(0), 0, false
	// Ascending (valid, ID) over the region's open blocks: the first that
	// qualifies is the global best, and the walk ends where a same-chip
	// candidate could no longer be preferred over it.
	for id, ok := f.Man.First(ftl.RoleSub, ftl.StateOpen); ok; id, ok = f.Man.Next(ftl.RoleSub, ftl.StateOpen, id) {
		v := f.Man.Valid(id)
		if v >= g.PagesPerBlock || (found && v > bestValid+8) {
			break
		}
		if f.pinned(id) || f.meta[id].round >= f.PageSecs-1 {
			continue
		}
		// Keep the refill on its slot's chip when a reasonable candidate
		// exists there (within 8 valid subpages of the global best): the
		// rotation is what spreads program load over every channel and way.
		if g.ChipOf(id) == preferChip {
			return id, true
		}
		if !found {
			best, bestValid, found = id, v, true
		}
	}
	return best, found
}

// pinned reports whether a region block is spoken for — the GC destination,
// the write block, or the collector's in-flight victim — and so is no
// candidate for a round advance, an open-victim drain or a reclaim.
func (f *FTL) pinned(id nand.BlockID) bool {
	return (f.gcDestSet && id == f.gcDest) || (f.wbSet && id == f.wb) || f.subCol.InFlight(id)
}

// pickOpenVictim returns the open, unpinned subpage
// block with the fewest valid subpages, lowest ID on ties, for the GC
// fallback when no block is terminally exhausted.
func (f *FTL) pickOpenVictim() (nand.BlockID, bool) {
	for id, ok := f.Man.First(ftl.RoleSub, ftl.StateOpen); ok; id, ok = f.Man.Next(ftl.RoleSub, ftl.StateOpen, id) {
		if !f.pinned(id) {
			return id, true
		}
	}
	return 0, false
}

// advanceRound moves block b to its next subpage round. Relocation of
// survivors is deferred to program time: a page's survivors are shifted
// into the same pass that programs its next slots (one page read plus one
// combined pass — the paper's Fig. 7(c) movement, batched), so advancing
// itself costs no I/O.
func (f *FTL) advanceRound(b nand.BlockID) {
	mb := &f.meta[b]
	mb.round++
	mb.cursor = 0
	f.Counters.RoundAdvances++
}

// readPageVerified reads a whole page once and returns the stamps,
// verifying each expected survivor against its recorded version. The
// callers hold the stamps across further device operations (evictions,
// the combined pass), so the device's borrowed read scratch is copied
// out — into FTL-owned scratch of our own, valid until the next
// readPageVerified call (the relocation paths never nest one inside
// another's hold window).
func (f *FTL) readPageVerified(p nand.PageID, survs []survivor) ([]nand.Stamp, error) {
	stamps, errs, err := f.Dev.ReadPage(p)
	if err != nil {
		return nil, err
	}
	for _, sv := range survs {
		if errs[sv.slot] != nil {
			return nil, fmt.Errorf("core: relocating lsn %d: %w", sv.lsn, errs[sv.slot])
		}
		want := nand.Stamp{LSN: sv.lsn, Version: f.verAt[sv.spn]}
		if stamps[sv.slot] != want {
			return nil, fmt.Errorf("core: relocation integrity violation at lsn %d: got %v, want %v", sv.lsn, stamps[sv.slot], want)
		}
	}
	if cap(f.pageStampsBuf) < len(stamps) {
		f.pageStampsBuf = make([]nand.Stamp, len(stamps))
	}
	out := f.pageStampsBuf[:len(stamps)]
	copy(out, stamps)
	return out, nil
}

// subPass programs one ESP pass on the next eligible page: shifting the
// page's hot survivors into the pass, evicting its cold survivors to the
// full-page region, and filling the remaining slots with up to len(lsns)
// new sectors. It returns how many new sectors it consumed (possibly 0
// for a pure-relocation pass).
func (f *FTL) subPass(lsns []int64, attrPerSector int64) (int, error) {
	g := f.Dev.Geometry()
	p, mb, pi, err := f.nextEligible()
	if err != nil {
		return 0, err
	}
	r := mb.round
	survs := f.survivorsIn(p, r)

	// Hot/cold split: never-updated survivors are evicted (the paper's
	// §4.2 heuristic — a hot sector is rewritten many times over before
	// its block comes around, so an un-updated survivor is genuinely
	// cold); updated survivors shift into this pass. Stale survivors are
	// always evicted, hot or not: they must keep a durable incarnation
	// (see stale), but shifting them would pin soon-dead copies in the
	// region and let relocation rotate them forever.
	shift := f.shiftBuf[:0]
	evict := f.evictSvBuf[:0]
	for _, sv := range survs {
		if f.keepsHot(sv) {
			shift = append(shift, sv)
		} else {
			evict = append(evict, sv)
		}
	}
	f.shiftBuf, f.evictSvBuf = shift, evict
	var pageStamps []nand.Stamp
	if len(survs) > 0 {
		pageStamps, err = f.readPageVerified(p, survs)
		if err != nil {
			return 0, err
		}
	}
	for _, sv := range evict {
		if err := f.evictSector(sv.lsn); err != nil {
			return 0, err
		}
		f.Counters.Evictions++
	}
	// More hot survivors than remaining slots (an earlier multi-subpage
	// pass left several live): the excess relocates to the GC destination
	// block instead of shifting in place.
	if over := r + len(shift) - f.PageSecs; over > 0 {
		if err := f.gcMoveGroup(shift[len(shift)-over:], pageStamps); err != nil {
			return 0, err
		}
		shift = shift[:len(shift)-over]
	}

	capacity := f.PageSecs - r - len(shift)
	n := len(lsns)
	if n > capacity {
		n = capacity
	}
	stamps := f.passStampsBuf[:0]
	for _, sv := range shift {
		stamps = append(stamps, pageStamps[sv.slot])
	}
	for _, lsn := range lsns[:n] {
		stamps = append(stamps, nand.Stamp{LSN: lsn, Version: f.Ver.Current(lsn)})
	}
	f.passStampsBuf = stamps
	if len(stamps) == 0 {
		// Nothing to program on this page (its survivors were all
		// evicted, or the caller had no sectors); consume it so the
		// policy moves on.
		mb.cursor++
		return n, nil
	}
	for attempt := 0; ; attempt++ {
		_, err := f.Dev.ProgramSubpageRunTag(p, r, stamps, ftl.TagSub)
		if err == nil {
			break
		}
		if !errors.Is(err, nand.ErrProgramFail) || attempt >= ftl.MaxProgramReplays {
			return 0, err
		}
		// The pass aborted: its fresh copies and the shifted survivors'
		// old cells are gone, but every payload is still in RAM (stamps).
		// Retire the block and replay the whole pass at round 0 of a fresh
		// write block.
		p, mb, pi, r, err = f.relocateFailedPass(p)
		if err != nil {
			return 0, err
		}
	}
	// Remap the shifted survivors. After a replay on a fresh block the
	// survivors changed blocks, so their valid counts move too.
	newBlk := g.BlockOfPage(p)
	for i, sv := range shift {
		newSpn := int64(g.SubpageOf(p, r+i))
		if oldBlk := g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(sv.spn))); oldBlk != newBlk {
			f.Man.AddValid(oldBlk, -1)
			f.Man.AddValid(newBlk, 1)
		}
		f.rmapSub[sv.spn] = mapping.None
		f.rmapSub[newSpn] = sv.lsn
		if err := f.hash.Put(sv.lsn, newSpn); err != nil {
			return 0, fmt.Errorf("core: shifting lsn %d: %w", sv.lsn, err)
		}
		f.verAt[newSpn] = pageStamps[sv.slot].Version
		f.writtenAt[newSpn] = f.Dev.Clock().Now()
		f.Counters.SubShifts++
		if f.Ver.SmallOrigin(sv.lsn) {
			f.Counters.SmallFlashBytes += int64(g.SubpageBytes)
		}
	}
	// Map the new sectors.
	for i, lsn := range lsns[:n] {
		spn := int64(g.SubpageOf(p, r+len(shift)+i))
		if err := f.subPlace(lsn, spn); err != nil {
			return 0, err
		}
		f.Counters.SmallFlashBytes += attrPerSector
	}
	mb.nextIdx[pi] = uint8(r + len(stamps))
	mb.cursor++
	return n, nil
}

// relocateFailedPass recovers from an injected program failure on page p
// of the write block (nextEligible hands out no other pages): the block is
// retired (grown bad) and a fresh subpage-region block, on the same slot's
// chip, becomes the write block. It returns the replay target — page 0 of
// the fresh block at round 0.
func (f *FTL) relocateFailedPass(p nand.PageID) (nand.PageID, *subBlock, int, int, error) {
	g := f.Dev.Geometry()
	f.wbSet = false
	f.Man.Retire(g.BlockOfPage(p))
	f.Counters.ProgramFailMoves++
	nb, err := f.growSub(f.slotChip(f.wbSlot))
	if err != nil {
		return 0, nil, 0, 0, err
	}
	f.wb, f.wbSet = nb, true
	return g.PageOf(nb, 0), &f.meta[nb], 0, 0, nil
}

// growSub waits at the pool's gate for a block and brings it into the
// region at round 0, for failure recovery and for a region too small to
// collect. The region quota is deliberately not consulted: a retired block
// counts against it until GC drains it, and recovery must not deadlock on
// that transient.
func (f *FTL) growSub(chip int) (nand.BlockID, error) {
	if err := f.full.Admit(); err != nil {
		return 0, err
	}
	b, ok := f.Man.AllocOnChip(ftl.RoleSub, chip)
	if !ok {
		return 0, fmt.Errorf("core: free pool exhausted growing the subpage region: %s", f.debugState())
	}
	f.initSubBlock(b)
	return b, nil
}

// subWriteRun writes the given sectors into the subpage region using as
// few erase-free program passes as possible (an SBPI pass can carry
// several subpages at once). attrPerSector is the per-sector small-write
// flash attribution.
func (f *FTL) subWriteRun(lsns []int64, attrPerSector int64) error {
	// Accrue write-tax debt: at quota every subpage written eventually
	// costs region GC one visit. The cap bounds post-idle step bursts.
	if f.gcDebt += len(lsns); f.gcDebt > 4*f.cfg.GC.StepPages {
		f.gcDebt = 4 * f.cfg.GC.StepPages
	}
	guard := 2*f.subQuota*f.Dev.Geometry().SubpagesPerBlock() + 64
	for len(lsns) > 0 {
		n, err := f.subPass(lsns, attrPerSector)
		if err != nil {
			return err
		}
		lsns = lsns[n:]
		if guard--; guard < 0 {
			return fmt.Errorf("core: subpage write made no progress: %s", f.debugState())
		}
	}
	return nil
}

// subPlace records the mapping updates shared by every new subpage
// program: invalidate the previous locations of lsn, map it to spn, and
// bump the valid count of spn's block.
func (f *FTL) subPlace(lsn, spn int64) error {
	g := f.Dev.Geometry()
	if old, ok := f.hash.Get(lsn); ok {
		f.rmapSub[old] = mapping.None
		f.Man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(old))), -1)
		f.updated[lsn] = true
	} else {
		f.updated[lsn] = false
	}
	f.dropFullCopy(lsn)
	if err := f.hash.Put(lsn, spn); err != nil {
		return fmt.Errorf("core: mapping lsn %d: %w", lsn, err)
	}
	f.rmapSub[spn] = lsn
	f.Man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))), 1)
	f.verAt[spn] = f.Ver.Current(lsn)
	f.writtenAt[spn] = f.Dev.Clock().Now()
	return nil
}

// evictSector moves lsn's (already read and verified) subpage-region data
// into the full-page region: drop the region copy and rewrite the sector
// there, a read-modify-write on the receiving page.
func (f *FTL) evictSector(lsn int64) error {
	f.dropSubCopy(lsn)
	g := f.Dev.Geometry()
	ps := int64(f.PageSecs)
	var attr int64
	if f.Ver.SmallOrigin(lsn) {
		attr = int64(g.SubpageBytes)
	}
	f.slot1[0] = int(lsn % ps)
	return f.full.WriteSectors(lsn/ps, f.slot1[:], attr)
}

// evictToFull reads, verifies and evicts one subpage-region sector; used
// by the retention manager, which has not read the page yet.
func (f *FTL) evictToFull(lsn, spn int64) error {
	stamp, err := f.Dev.ReadSubpage(nand.SubpageID(spn))
	if err != nil {
		return fmt.Errorf("core: evicting lsn %d: %w", lsn, err)
	}
	want := nand.Stamp{LSN: lsn, Version: f.verAt[spn]}
	if stamp != want {
		return fmt.Errorf("core: eviction integrity violation at lsn %d: got %v, want %v", lsn, stamp, want)
	}
	return f.evictSector(lsn)
}

// gcMoveGroup writes a victim page's hot survivors into the GC destination
// block as one pass.
func (f *FTL) gcMoveGroup(survs []survivor, pageStamps []nand.Stamp) error {
	g := f.Dev.Geometry()
	if cap(f.gcStampsBuf) < len(survs) {
		f.gcStampsBuf = make([]nand.Stamp, len(survs))
	}
	stamps := f.gcStampsBuf[:len(survs)]
	for i, sv := range survs {
		stamps[i] = pageStamps[sv.slot]
	}
	var mb *subBlock
	var pi int
	var dp nand.PageID
	for attempt := 0; ; attempt++ {
		if f.gcDestSet && f.meta[f.gcDest].cursor >= g.PagesPerBlock {
			// Destination filled its round 0: it rejoins the region as a
			// normal (advance-capable) block.
			f.gcDestSet = false
		}
		if !f.gcDestSet {
			b, ok := f.Man.Alloc(ftl.RoleSub)
			if !ok {
				return fmt.Errorf("core: no free block for subpage GC destination")
			}
			f.initSubBlock(b)
			f.gcDest, f.gcDestSet = b, true
		}
		mb = &f.meta[f.gcDest]
		pi = mb.cursor
		mb.cursor++
		dp = g.PageOf(f.gcDest, pi)
		_, err := f.Dev.ProgramSubpageRunTag(dp, 0, stamps, ftl.TagSub)
		if err == nil {
			break
		}
		if !errors.Is(err, nand.ErrProgramFail) || attempt >= ftl.MaxProgramReplays {
			return err
		}
		// The source copies on the victim are untouched; retire the
		// destination (grown bad) and replay onto a fresh one.
		f.Man.Retire(f.gcDest)
		f.gcDestSet = false
		f.Counters.ProgramFailMoves++
	}
	mb.nextIdx[pi] = uint8(len(stamps))
	for i, sv := range survs {
		spn := int64(g.SubpageOf(dp, i))
		if err := f.subPlace(sv.lsn, spn); err != nil {
			return err
		}
		// Relocation preserves the on-flash stamp. For a stale survivor
		// (newest version still in the write buffer) that stamp is older
		// than the host version subPlace assumed, and the read path
		// verifies against what is physically there.
		f.verAt[spn] = stamps[i].Version
		// Demote: surviving one GC without a host refresh costs the hot
		// verdict, so even a region saturated with once-hot data
		// converges — the next encounter evicts anything the host has
		// not re-updated. Genuinely hot data is re-updated (restoring
		// the verdict) long before its next GC.
		f.updated[sv.lsn] = false
		f.Counters.GCMovedSectors++
		if f.Ver.SmallOrigin(sv.lsn) {
			f.Counters.SmallFlashBytes += int64(g.SubpageBytes)
		}
	}
	return nil
}

// subTarget adapts the subpage region to the collector's Target: one Work
// call relocates one victim page's survivors (the collector's page-scale
// work unit).
type subTarget struct {
	f *FTL
}

// View exposes the full (terminally exhausted) subpage-region blocks to
// the victim policy, excluding any in-flight victim.
func (t *subTarget) View() gc.View { return t.f.subView }

// Fallback reclaims the fullest-free open block when no block is
// terminally exhausted. Background stepping takes it too: region blocks
// only reach StateFull after exhausting every round, so most drains
// sacrifice an open block's remaining rounds — and Tick only steps here
// when a foreground drain that would pick the same victim is at most
// gcSlack refills away.
func (t *subTarget) Fallback() (nand.BlockID, bool) { return t.f.pickOpenVictim() }

// Begin checkpoints a fresh victim: reset the page cursor and take the
// pressure-valve verdict once, so preempted steps resume consistently.
// A victim with most slots still valid means the region is saturated with
// data the host is not invalidating fast enough; keeping it would make GC
// a pure rotation, so everything in such victims is evicted and the
// region always converges to its hot core.
func (t *subTarget) Begin(b nand.BlockID) {
	f := t.f
	f.Counters.GCInvocations++
	f.gcPage = 0
	f.gcEvictAll = f.Man.Valid(b) > f.Dev.Geometry().SubpagesPerBlock()/2
}

// Work relocates the survivors of the victim's next occupied page. Pages
// with no survivors are skipped free of budget; the cursor advances only
// after a page fully relocates, so an error-side retry reprocesses the
// remaining survivors of the same page.
func (t *subTarget) Work(victim nand.BlockID) (int, bool, error) {
	f := t.f
	g := f.Dev.Geometry()
	for f.gcPage < g.PagesPerBlock {
		p := g.PageOf(victim, f.gcPage)
		survs := f.survivorsIn(p, f.PageSecs)
		if len(survs) == 0 {
			f.gcPage++
			continue
		}
		pageStamps, err := f.readPageVerified(p, survs)
		if err != nil {
			return 0, false, err
		}
		hot := f.hotBuf[:0]
		for _, sv := range survs {
			// Stale survivors take the eviction path regardless of heat:
			// dropping them would destroy the sector's only durable
			// incarnation at the victim erase (see stale).
			if f.keepsHot(sv) && !f.gcEvictAll {
				hot = append(hot, sv)
				continue
			}
			if err := f.evictSector(sv.lsn); err != nil {
				return 0, false, err
			}
			f.Counters.Evictions++
		}
		f.hotBuf = hot
		if len(hot) > 0 {
			if err := f.gcMoveGroup(hot, pageStamps); err != nil {
				return 0, false, err
			}
		}
		f.gcPage++
		return len(survs), f.gcPage >= g.PagesPerBlock, nil
	}
	return 0, true, nil
}

// Release erases the drained victim and returns it to the pool. Evictions
// route through the full-page region, whose capacity work may already have
// reclaimed this victim once it emptied.
func (t *subTarget) Release(victim nand.BlockID) error {
	if t.f.Man.State(victim) != ftl.StateFree {
		return t.f.recycleSub(victim)
	}
	return nil
}
