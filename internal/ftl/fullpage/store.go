// Package fullpage implements the coarse-grained-mapping (CGM) full-page
// store: logical pages map one-to-one onto physical pages, every program
// writes a whole page, and writes smaller than a page pay a
// read-modify-write. It is used directly by cgmFTL and as the full-page
// region of subFTL (paper §4: "the full-page region is managed in exactly
// the same way as the CGM-based FTLs").
package fullpage

import (
	"fmt"
	"math/bits"

	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/mapping"
	"espftl/internal/nand"
)

// Config parameterizes a Store; it is fixed at construction.
type Config struct {
	// LogicalPages is the size of the page-mapped space. The version
	// tracker handed to New must cover LogicalPages*pageSectors sectors.
	LogicalPages int64
	// Reserve is the free-pool floor below which host allocations trigger
	// GC.
	Reserve int
	// GC selects the victim policy, step budget and background slack.
	GC gc.Options
	// Reclaim, when set, is tried before GC to free a block some other way
	// (see ftl.LogConfig.Reclaim).
	Reclaim func() bool
}

// Store is a CGM region over a shared block manager. All methods are
// in units of logical pages (LPN) and sector indices within a page.
// Allocation, program-failure replay and collection are the embedded
// page-append log's; the store keeps the page mapping.
type Store struct {
	*ftl.Log

	dev   *nand.Device
	man   *ftl.Manager
	ver   *ftl.Versions
	stats *ftl.Stats
	place lifetime.Placement

	table *mapping.Table
	rmap  []int32  // PPN -> LPN, None as -1 (valid only if table agrees)
	masks []uint64 // LPN -> bitmask of live sectors within the page

	pageSecs int

	// gcCursor is the per-victim page cursor the collector's checkpoint
	// resumes at.
	gcCursor int
}

// New builds a store behind the owning FTL's front end: over its manager's
// blocks, its version tracker and counters. The front end's placement
// classifies every host-written logical page; pages it predicts long-lived
// land on the log's cold stripe, segregating them into blocks hot rewrites
// never churn.
func New(fe *ftl.Front, cfg Config) (*Store, error) {
	dev, ver := fe.Dev, fe.Ver
	g := dev.Geometry()
	if g.SubpagesPerPage > 64 {
		return nil, fmt.Errorf("fullpage: %d subpages per page exceeds the 64-bit sector mask", g.SubpagesPerPage)
	}
	if cfg.LogicalPages <= 0 {
		return nil, fmt.Errorf("fullpage: logicalPages = %d", cfg.LogicalPages)
	}
	if ver.Size() < cfg.LogicalPages*int64(g.SubpagesPerPage) {
		return nil, fmt.Errorf("fullpage: version tracker covers %d sectors, need %d", ver.Size(), cfg.LogicalPages*int64(g.SubpagesPerPage))
	}
	s := &Store{
		dev:      dev,
		man:      fe.Man,
		ver:      ver,
		stats:    &fe.Counters,
		place:    fe.Place,
		table:    mapping.NewTable(cfg.LogicalPages),
		rmap:     make([]int32, g.TotalPages()),
		masks:    make([]uint64, cfg.LogicalPages),
		pageSecs: g.SubpagesPerPage,
	}
	for i := range s.rmap {
		s.rmap[i] = int32(mapping.None)
	}
	log, err := ftl.NewLog(dev, fe.Man, &fe.Counters, ftl.LogConfig{
		Reserve:       cfg.Reserve,
		GC:            cfg.GC,
		UnitsPerBlock: g.PagesPerBlock,
		Tag:           ftl.TagFull,
		Cold:          fe.Place.ColdStripe(),
		Reclaim:       cfg.Reclaim,
	}, (*storeOwner)(s))
	if err != nil {
		return nil, err
	}
	s.Log = log
	return s, nil
}

// LogicalPages returns the store's logical page count.
func (s *Store) LogicalPages() int64 { return s.table.Size() }

// MappingBytes returns the coarse table footprint plus the per-page masks.
func (s *Store) MappingBytes() int64 { return s.table.MemoryBytes() + int64(len(s.masks))*8 }

// Holds reports whether sector lsn has live data in the store.
func (s *Store) Holds(lsn int64) bool {
	lpn := lsn / int64(s.pageSecs)
	return s.table.Lookup(lpn) != mapping.None && s.masks[lpn]&(1<<(lsn%int64(s.pageSecs))) != 0
}

// StoredVersion returns the version stamped on lsn's live copy in the
// store, 0 when it holds none.
func (s *Store) StoredVersion(lsn int64) uint32 {
	if !s.Holds(lsn) {
		return 0
	}
	lpn, slot := lsn/int64(s.pageSecs), int(lsn%int64(s.pageSecs))
	p := nand.PageID(s.table.Lookup(lpn))
	return s.dev.SubpageInfo(s.dev.Geometry().SubpageOf(p, slot)).Stamp.Version
}

// ChipOf returns the chip currently holding logical page lpn, or -1 when
// lpn is out of range or unmapped. It is the store's half of the host
// scheduler's read-routing probe and must stay side-effect free.
func (s *Store) ChipOf(lpn int64) int {
	if lpn < 0 || lpn >= s.table.Size() {
		return -1
	}
	ppn := s.table.Lookup(lpn)
	if ppn == mapping.None {
		return -1
	}
	g := s.dev.Geometry()
	return g.ChipOf(g.BlockOfPage(nand.PageID(ppn)))
}

// programPage writes the live sectors of lpn (per its mask) to a fresh
// physical page at their current host versions and updates the mapping.
func (s *Store) programPage(lpn int64, stream ftl.Stream) error {
	stamps := s.Stamps()
	mask := s.masks[lpn]
	for slot := 0; slot < s.pageSecs; slot++ {
		if mask&(1<<slot) == 0 {
			stamps[slot] = nand.Padding
			continue
		}
		lsn := lpn*int64(s.pageSecs) + int64(slot)
		stamps[slot] = nand.Stamp{LSN: lsn, Version: s.ver.Current(lsn)}
	}
	if stream == ftl.StreamHost && s.stats.TallyClass(s.place.Class(lpn)) {
		stream = ftl.StreamCold
	}
	p, err := s.Append(stream, stamps)
	if err != nil {
		return err
	}
	old := s.table.Update(lpn, int64(p))
	s.rmap[p] = int32(lpn)
	b, _ := s.dev.BlockOfPage(p)
	s.man.AddValid(b, 1)
	if old != mapping.None {
		ob, _ := s.dev.BlockOfPage(nand.PageID(old))
		s.man.AddValid(ob, -1)
	}
	return nil
}

// WriteSectors services a host (or eviction) write of the given sector
// slots within lpn. The caller must already have bumped the versions of
// the written sectors. When the write does not cover every live sector of
// the page and an old copy exists, the old page is read first — the
// read-modify-write the paper blames for the CGM scheme's losses.
// attrSmallBytes is added to the small-write flash attribution (the
// caller decides the accounting; see Stats.SmallFlashBytes).
func (s *Store) WriteSectors(lpn int64, slots []int, attrSmallBytes int64) error {
	if len(slots) == 0 {
		return fmt.Errorf("fullpage: empty write to lpn %d", lpn)
	}
	var newMask uint64
	for _, slot := range slots {
		if slot < 0 || slot >= s.pageSecs {
			return fmt.Errorf("fullpage: slot %d out of range", slot)
		}
		newMask |= 1 << slot
	}
	old := s.table.Lookup(lpn)
	oldLive := s.masks[lpn] &^ newMask
	if old != mapping.None && oldLive != 0 {
		// RMW: recover the sectors this write does not replace.
		_, errs, err := s.dev.ReadPage(nand.PageID(old))
		if err != nil {
			return err
		}
		for slot := 0; slot < s.pageSecs; slot++ {
			if oldLive&(1<<slot) != 0 && errs[slot] != nil {
				return fmt.Errorf("fullpage: RMW lost sector %d of lpn %d: %w", slot, lpn, errs[slot])
			}
		}
		s.stats.RMWOps++
	}
	// A failed program leaves the page's live sectors as they were: the
	// new ones never landed.
	prev := s.masks[lpn]
	s.masks[lpn] |= newMask
	s.stats.SmallFlashBytes += attrSmallBytes
	if err := s.programPage(lpn, ftl.StreamHost); err != nil {
		s.masks[lpn] = prev
		return err
	}
	return nil
}

// ReadSectors services a host read of the given sector slots within lpn.
// Unmapped pages and dead slots read as zeroes without touching flash;
// mapped pages cost one page read, and every returned stamp is verified
// against the host version (integrity check).
func (s *Store) ReadSectors(lpn int64, slots []int) error {
	old := s.table.Lookup(lpn)
	if old == mapping.None {
		return nil
	}
	live := s.masks[lpn]
	any := false
	for _, slot := range slots {
		if live&(1<<slot) != 0 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	stamps, errs, err := s.dev.ReadPage(nand.PageID(old))
	if err != nil {
		return err
	}
	for _, slot := range slots {
		if live&(1<<slot) == 0 {
			continue
		}
		if errs[slot] != nil {
			return fmt.Errorf("fullpage: read lpn %d slot %d: %w", lpn, slot, errs[slot])
		}
		lsn := lpn*int64(s.pageSecs) + int64(slot)
		want := nand.Stamp{LSN: lsn, Version: s.ver.Current(lsn)}
		if stamps[slot] != want {
			return fmt.Errorf("fullpage: integrity violation at lsn %d: got %v, want %v", lsn, stamps[slot], want)
		}
	}
	return nil
}

// TrimSectors drops the given sector slots of lpn. When no live sector
// remains the mapping is released.
func (s *Store) TrimSectors(lpn int64, slots []int) {
	for _, slot := range slots {
		s.masks[lpn] &^= 1 << slot
	}
	if s.masks[lpn] == 0 {
		if old := s.table.Invalidate(lpn); old != mapping.None {
			s.man.AddValid(s.dev.Geometry().BlockOfPage(nand.PageID(old)), -1)
		}
	}
}

// storeOwner is the Store's ftl.LogOwner face: the log decides which block
// to drain and when to preempt; these methods do the page moves.
type storeOwner Store

// Refill implements ftl.LogOwner: the store pays its write tax at every
// host-side block refill, on top of cgmFTL's per-request payment.
func (o *storeOwner) Refill() error { return o.Pay() }

// Begin implements ftl.LogOwner: cursor reset.
func (o *storeOwner) Begin(nand.BlockID) { o.gcCursor = 0 }

// Work implements ftl.LogOwner: relocate the next live page of the victim.
// Stale pages are skipped within one call (they cost no device work), so
// the step budget counts actual relocations.
func (o *storeOwner) Work(victim nand.BlockID) (int, bool, error) {
	s := (*Store)(o)
	g := s.dev.Geometry()
	for {
		if s.gcCursor >= g.PagesPerBlock || s.man.Valid(victim) == 0 {
			return 0, true, nil
		}
		p := g.PageOf(victim, s.gcCursor)
		s.gcCursor++
		lpn := int64(s.rmap[p])
		if lpn == mapping.None || s.table.Lookup(lpn) != int64(p) {
			continue // stale copy
		}
		// Relocate: read the old page, then rewrite the live sectors.
		_, errs, err := s.dev.ReadPage(p)
		if err != nil {
			return 0, false, err
		}
		for slot := 0; slot < s.pageSecs; slot++ {
			if s.masks[lpn]&(1<<slot) != 0 && errs[slot] != nil {
				return 0, false, fmt.Errorf("fullpage: GC lost sector %d of lpn %d: %w", slot, lpn, errs[slot])
			}
		}
		if err := s.programPage(lpn, ftl.StreamGC); err != nil {
			return 0, false, err
		}
		// Attribute relocation of small-origin sectors to the request WAF.
		for slot := 0; slot < s.pageSecs; slot++ {
			if s.masks[lpn]&(1<<slot) == 0 {
				continue
			}
			lsn := lpn*int64(s.pageSecs) + int64(slot)
			s.stats.GCMovedSectors++
			if s.ver.SmallOrigin(lsn) {
				s.stats.SmallFlashBytes += int64(g.SubpageBytes)
			}
		}
		done := s.gcCursor >= g.PagesPerBlock || s.man.Valid(victim) == 0
		return 1, done, nil
	}
}

// Recover rebuilds the store's mapping from scanned blocks, which the
// owning FTL has already dispatched to this region by OOB tag, adding its
// adopted blocks, live sectors and stale copies to rep. Duplicate
// LPNs resolve to the page with the highest program sequence number; every
// observed version re-seeds the tracker so post-mount writes outrun all
// on-flash copies. superseded, when non-nil, reports that a copy of lsn
// newer than seq lives outside this store (subFTL's subpage region) and
// the slot must not be adopted here. Every scanned block is adopted in the
// full state — valid-zero blocks become immediate GC victims, so
// pre-crash garbage self-heals through the normal erase path.
func (s *Store) Recover(blocks []ftl.ScannedBlock, superseded func(lsn int64, seq uint64) bool, rep *ftl.MountReport) error {
	g := s.dev.Geometry()
	type winner struct {
		ppn  int64
		seq  uint64
		mask uint64
		vers []uint32
	}
	win := make(map[int64]winner)
	for _, blk := range blocks {
		for pi, slots := range blk.Pages {
			p := g.PageOf(blk.Block, pi)
			lpn := int64(-1)
			var seq, mask uint64
			vers := make([]uint32, s.pageSecs)
			for slot, sl := range slots {
				if sl.State != nand.OOBValid || sl.OOB.Stamp.IsPadding() {
					continue
				}
				lsn := sl.OOB.Stamp.LSN
				if lsn < 0 || lsn >= s.ver.Size() || int(lsn%int64(s.pageSecs)) != slot {
					continue // foreign or pre-FTL test data; never adopt
				}
				if superseded != nil && superseded(lsn, sl.OOB.Seq) {
					rep.StaleSubpages++
					continue
				}
				slotLPN := lsn / int64(s.pageSecs)
				if lpn >= 0 && slotLPN != lpn {
					continue // slots of one page always share an LPN
				}
				lpn = slotLPN
				if sl.OOB.Seq > seq {
					seq = sl.OOB.Seq
				}
				mask |= 1 << slot
				vers[slot] = sl.OOB.Stamp.Version
			}
			if lpn < 0 || mask == 0 {
				continue
			}
			if w, ok := win[lpn]; !ok || seq > w.seq {
				if ok {
					rep.StaleSubpages += int64(bits.OnesCount64(w.mask))
				}
				win[lpn] = winner{ppn: int64(p), seq: seq, mask: mask, vers: vers}
			} else {
				rep.StaleSubpages += int64(bits.OnesCount64(mask))
			}
		}
	}
	for lpn, w := range win {
		s.table.Update(lpn, w.ppn)
		s.rmap[w.ppn] = int32(lpn)
		s.masks[lpn] = w.mask
		rep.LiveSectors += int64(bits.OnesCount64(w.mask))
		// Only the winning copy re-seeds the version tracker: a stale copy
		// can out-version the winner (trim resets the counter), and the read
		// path verifies stamps against ver.Current.
		for slot := 0; slot < s.pageSecs; slot++ {
			if w.mask&(1<<slot) != 0 {
				s.ver.Restore(lpn*int64(s.pageSecs)+int64(slot), w.vers[slot])
			}
		}
	}
	perBlock := make(map[nand.BlockID]int)
	for _, w := range win {
		perBlock[g.BlockOfPage(nand.PageID(w.ppn))]++
	}
	for _, blk := range blocks {
		if err := s.man.Adopt(blk.Block, ftl.RoleFull, perBlock[blk.Block]); err != nil {
			return err
		}
		rep.BlocksAdopted++
	}
	return nil
}

// Check verifies the store's internal invariants.
func (s *Store) Check() error {
	g := s.dev.Geometry()
	perBlock := make(map[nand.BlockID]int)
	mapped := 0
	for lpn := int64(0); lpn < s.table.Size(); lpn++ {
		ppn := s.table.Lookup(lpn)
		if ppn == mapping.None {
			if s.masks[lpn] != 0 {
				return fmt.Errorf("fullpage: lpn %d has live mask %b but no mapping", lpn, s.masks[lpn])
			}
			continue
		}
		mapped++
		if s.masks[lpn] == 0 {
			return fmt.Errorf("fullpage: lpn %d mapped with empty mask", lpn)
		}
		if int64(s.rmap[ppn]) != lpn {
			return fmt.Errorf("fullpage: rmap[%d] = %d, want %d", ppn, s.rmap[ppn], lpn)
		}
		perBlock[g.BlockOfPage(nand.PageID(ppn))]++
	}
	if mapped != s.table.Mapped() {
		return fmt.Errorf("fullpage: table reports %d mapped, found %d", s.table.Mapped(), mapped)
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if s.man.State(id) == ftl.StateFree || s.man.Role(id) != ftl.RoleFull {
			if perBlock[id] != 0 {
				return fmt.Errorf("fullpage: block %d holds %d valid pages but is not a live full-page block", id, perBlock[id])
			}
			continue
		}
		if got, want := s.man.Valid(id), perBlock[id]; got != want {
			return fmt.Errorf("fullpage: block %d valid = %d, want %d", id, got, want)
		}
	}
	return s.man.CheckIndex()
}
