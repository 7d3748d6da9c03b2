// Package core implements subFTL, the paper's ESP-aware flash translation
// layer (§4). subFTL divides flash into two dynamically assigned regions:
//
//   - a subpage region (20 % of blocks by default) written with erase-free
//     subpage programming — one valid subpage per physical page, pages
//     re-programmed round by round in sequential subpage order — and
//     mapped by a compact hash table;
//   - a full-page region managed exactly like a CGM FTL (coarse-grained
//     page mapping, read-modify-write for partial pages).
//
// Data placement is by flushed request length: pieces shorter than a full
// page go to the subpage region (so small writes never fragment a 16-KB
// page), full aligned pages go to the full-page region. The subpage
// region's GC separates hot from cold (subpages updated at least once stay,
// never-updated ones are evicted to the full-page region), and a retention
// manager evicts subpages older than 15 days, half the conservative
// one-month retention capability of ESP-written data.
package core

import (
	"errors"
	"fmt"
	"time"

	"espftl/internal/buffer"
	"espftl/internal/ftl"
	"espftl/internal/ftl/fullpage"
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/mapping"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// Config parameterizes subFTL.
type Config struct {
	// LogicalSectors is the exported logical space in sectors; it must be
	// a multiple of the page size in sectors.
	LogicalSectors int64
	// SubRegionFrac is the fraction of blocks assigned to the subpage
	// region (the paper uses 0.20).
	SubRegionFrac float64
	// GCReserveBlocks is the free-pool floor that triggers GC.
	GCReserveBlocks int
	// BufferSectors bounds the aligned write buffer (staged sectors).
	BufferSectors int
	// RetentionThreshold is the age at which the retention manager evicts
	// a subpage to the full-page region (paper: 15 days).
	RetentionThreshold time.Duration
	// ScrubInterval is how often the retention manager scans (paper
	// checks continuously; a daily scan is equivalent at these scales).
	ScrubInterval time.Duration
	// DisableHotColdGC turns off the hot/cold split in subpage-region GC:
	// every valid subpage is treated as cold and evicted to the full-page
	// region, so hot data loses its in-region residency. Used by the
	// ablation experiments to quantify the value of the paper's §4.2
	// separation heuristic.
	DisableHotColdGC bool
	// DisableRetention turns off the retention manager. Used by failure-
	// injection tests that demonstrate why it must exist.
	DisableRetention bool
	// GC selects the victim policy, step budget and background slack for
	// both regions' collectors. The zero value is greedy, whole-block, no
	// background.
	GC gc.Options
	// ErasePolicy chooses the depth of every block erase (adaptive erase;
	// see internal/lifetime). Nil is the paper's lifetime.FixedDeep.
	ErasePolicy lifetime.ErasePolicy
	// Lifetime, when true, enables longevity-aware placement: a per-page
	// update-interval predictor steers predicted-cold small writes away
	// from the subpage region (they would only churn through its GC and
	// retention eviction paths) and segregates predicted-cold full-page
	// programs onto a dedicated append stripe.
	Lifetime bool
}

// DefaultConfig fills in the paper's parameters for a given logical space.
func DefaultConfig(logicalSectors int64) Config {
	return Config{
		LogicalSectors:     logicalSectors,
		SubRegionFrac:      0.20,
		GCReserveBlocks:    4,
		BufferSectors:      256,
		RetentionThreshold: 15 * 24 * time.Hour,
		ScrubInterval:      24 * time.Hour,
	}
}

// minRegionBlocks is the smallest subpage region that can collect itself:
// an open write block, the GC destination, and one victim beside them. It
// bounds the quota, what reclaim leaves, and the read-only floor's share.
const minRegionBlocks = 3

// subBlock is subFTL's per-block bookkeeping for subpage-region blocks.
type subBlock struct {
	// round is the subpage index currently being filled (0..N_sub-1).
	round int
	// cursor is the next page to consider at this round.
	cursor int
	// nextIdx is, per page, the next unprogrammed subpage index. A page
	// is eligible for a pass when nextIdx == round; multi-subpage passes
	// may leave it ahead of the round (invariant: round <= nextIdx <= N_sub).
	nextIdx []uint8
	// inUse marks the entry as belonging to a live subpage-region block.
	inUse bool
}

// FTL is the subFTL instance: the shared front end over two regions. The
// front end's placement steers small writes between the regions and feeds
// the full-page store's cold placement.
type FTL struct {
	ftl.Front
	cfg Config

	full *fullpage.Store // the CGM-managed full-page region

	// Subpage region state.
	hash      *mapping.HashTable // LSN -> SPN
	rmapSub   []int64            // SPN -> LSN
	verAt     []uint32           // SPN -> host version stored there
	writtenAt []sim.Time         // SPN -> program time (retention aging)
	updated   []bool             // LSN: overwritten since entering the region?
	meta      []subBlock         // per-block, indexed by BlockID
	// nextIdxSlab backs every subBlock.nextIdx (see freshNextIdx).
	nextIdxSlab []uint8
	subBlocks   int // blocks currently in the subpage region
	subQuota    int

	// wb is the region's one open write block, taken at refill for slot
	// wbSlot of a rotation width slots wide (one per chip, up to a third
	// of the region quota): rr, the slot after the last page handed out,
	// picks the next refill's slot and so its chip, spreading the region's
	// blocks over the channels and ways (paper §4.2).
	wb     nand.BlockID
	wbSet  bool
	wbSlot int
	rr     int
	width  int

	gcDest    nand.BlockID // persistent GC destination block (round 0)
	gcDestSet bool

	// subCol drives region GC incrementally; its in-flight victim is what
	// keeps reentrant reclaim (via evictions into the full-page region)
	// from recycling and re-allocating the block being drained mid-scan.
	subCol *gc.Collector
	// subTarget and subView are built once, as ftl.Log does: their inputs
	// are fixed for the FTL's life, and rebuilding either per collection
	// would put an allocation on the write path.
	subTarget gc.Target
	subView   gc.View
	// gcPage / gcEvictAll checkpoint the in-flight victim's scan position
	// and pressure-valve verdict across preempted collection steps.
	gcPage     int
	gcEvictAll bool
	gcSlack    int
	// gcDebt paces the incremental write tax's region pre-drain: subpages
	// written to the region since the last paced step (capped so an idle
	// stretch cannot bank an unbounded burst of collection).
	gcDebt int

	buf       *buffer.Aligned
	lastScrub sim.Time

	// steerBuf/steerSlots are the steering path's reusable partition
	// scratch.
	steerBuf   []int64
	steerSlots []int

	// Reusable scratch for the steady-state I/O path, so host writes,
	// reads and trims allocate nothing. identSlots is the constant
	// identity slot list [0..PageSecs) shared by full-page writes (never
	// mutated, so nesting is irrelevant); partialBuf backs a large
	// write's head/tail sectors (the front end's SectorRun backs Write's
	// and Trim's sector runs); fullSlotsBuf backs Read's per-page slot
	// grouping; slot1 serves single-slot full-region calls. The callees
	// consume each slice before anything can re-enter these paths (GC
	// relocation writes through its own scratch in subregion.go), so one
	// set per FTL suffices.
	identSlots   []int
	partialBuf   []int64
	fullSlotsBuf []int
	slot1        [1]int

	// Relocation scratch (see subregion.go). survivorsBuf backs
	// survivorsIn for both subPass and GC Work — safe because subPass
	// takes its survivors only after nextEligible (whose nested GC work
	// has finished with the buffer) and nothing downstream re-enters
	// survivorsIn. shiftBuf/evictBuf split a pass's survivors, hotBuf is
	// GC Work's hot list (distinct from shiftBuf: Work nests inside
	// subPass via nextEligible). pageStampsBuf holds the verified page
	// image, passStampsBuf and gcStampsBuf the program payloads.
	survivorsBuf  []survivor
	shiftBuf      []survivor
	evictSvBuf    []survivor
	hotBuf        []survivor
	pageStampsBuf []nand.Stamp
	passStampsBuf []nand.Stamp
	gcStampsBuf   []nand.Stamp
}

var _ ftl.FTL = (*FTL)(nil)

// New builds a subFTL over the device.
func New(dev *nand.Device, cfg Config) (*FTL, error) {
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	if cfg.LogicalSectors <= 0 || cfg.LogicalSectors%ps != 0 {
		return nil, fmt.Errorf("core: LogicalSectors = %d must be a positive multiple of %d", cfg.LogicalSectors, ps)
	}
	if cfg.SubRegionFrac <= 0 || cfg.SubRegionFrac >= 1 {
		return nil, fmt.Errorf("core: SubRegionFrac = %v outside (0,1)", cfg.SubRegionFrac)
	}
	if cfg.GCReserveBlocks < 2 {
		cfg.GCReserveBlocks = 2
	}
	if cfg.BufferSectors < g.SubpagesPerPage {
		cfg.BufferSectors = g.SubpagesPerPage
	}
	if cfg.RetentionThreshold <= 0 {
		cfg.RetentionThreshold = 15 * 24 * time.Hour
	}
	if cfg.ScrubInterval <= 0 {
		cfg.ScrubInterval = 24 * time.Hour
	}
	subQuota := int(float64(g.TotalBlocks()) * cfg.SubRegionFrac)
	subQuota = max(subQuota, minRegionBlocks)
	if subQuota > g.TotalBlocks()-cfg.GCReserveBlocks-3 {
		return nil, fmt.Errorf("core: device too small for a %d-block subpage region", subQuota)
	}
	fe, err := ftl.NewFront(dev, cfg.LogicalSectors, cfg.ErasePolicy, cfg.Lifetime)
	if err != nil {
		return nil, err
	}
	f := &FTL{
		Front:       fe,
		cfg:         cfg,
		hash:        mapping.NewHashTable(subQuota * g.SubpagesPerBlock()),
		rmapSub:     make([]int64, g.TotalSubpages()),
		verAt:       make([]uint32, g.TotalSubpages()),
		writtenAt:   make([]sim.Time, g.TotalSubpages()),
		updated:     make([]bool, cfg.LogicalSectors),
		meta:        make([]subBlock, g.TotalBlocks()),
		nextIdxSlab: make([]uint8, g.TotalBlocks()*g.PagesPerBlock),
		subQuota:    subQuota,
		buf:         buffer.NewAligned(g.SubpagesPerPage, cfg.BufferSectors),
		gcSlack:     cfg.GC.BackgroundSlack,
	}
	pol, err := gc.NewPolicy(cfg.GC)
	if err != nil {
		return nil, err
	}
	f.subCol = gc.NewCollector(pol, cfg.GC.StepPages)
	f.subTarget = &subTarget{f}
	f.subView = f.Man.GCView(ftl.RoleSub, g.SubpagesPerBlock(), f.subCol.InFlight)
	f.width = max(min(g.Chips(), subQuota/3), 1)
	f.identSlots = make([]int, g.SubpagesPerPage)
	for i := range f.identSlots {
		f.identSlots[i] = i
	}
	for i := range f.rmapSub {
		f.rmapSub[i] = mapping.None
	}
	// The full-page region is uncapped: block roles are assigned at
	// program time (paper §4.2), so full-page data may spread over idle
	// subpage-region capacity — the reclaim hook converts empty subpage
	// blocks back whenever the pool runs low.
	f.full, err = fullpage.New(&f.Front, fullpage.Config{
		LogicalPages: cfg.LogicalSectors / ps,
		Reserve:      cfg.GCReserveBlocks,
		GC:           cfg.GC,
		Reclaim:      f.reclaimEmptySubBlock,
	})
	if err != nil {
		return nil, err
	}
	// Read-only once bad blocks leave less than the logical space, the GC
	// reserve, the full-page log's open append points and a minimal subpage
	// region need.
	f.Man.SetCapacityFloor(cfg.LogicalSectors, cfg.GCReserveBlocks+f.full.OpenBlocks()+minRegionBlocks)
	return f, nil
}

// reclaimEmptySubBlock erases one subpage-region block that holds no live
// data and returns it to the shared pool (dynamic region conversion), never
// shrinking the region below minRegionBlocks. It reports whether a block
// was reclaimed.
func (f *FTL) reclaimEmptySubBlock() bool {
	for id, ok := f.emptySubBlockFrom(0); ok && f.subBlocks > minRegionBlocks; id, ok = f.emptySubBlockFrom(id + 1) {
		if f.recycleSub(id) != nil {
			return false
		}
		if f.Man.State(id) == ftl.StateBad {
			// The block was retired while empty; it is out of the region
			// but gave nothing back to the pool. Keep looking.
			continue
		}
		f.Counters.RegionReclaims++
		return true
	}
	return false
}

// emptySubBlockFrom returns the lowest-numbered region block at or after
// from that holds no live data and is not pinned, open and full blocks
// alike: a merge of the two classes' valid-0 buckets.
func (f *FTL) emptySubBlockFrom(from nand.BlockID) (nand.BlockID, bool) {
	for {
		id, ok := f.Man.Seek(ftl.RoleSub, ftl.StateOpen, 0, from)
		ok = ok && f.Man.Valid(id) == 0
		if full, okFull := f.Man.Seek(ftl.RoleSub, ftl.StateFull, 0, from); okFull && f.Man.Valid(full) == 0 && (!ok || full < id) {
			id, ok = full, true
		}
		if !ok || !f.pinned(id) {
			return id, ok
		}
		from = id + 1
	}
}

// Name implements ftl.FTL.
func (f *FTL) Name() string { return "subFTL" }

// SubRegionBlocks returns the current subpage-region block count.
func (f *FTL) SubRegionBlocks() int { return f.subBlocks }

// RegionValid returns the number of live subpages in the subpage region.
func (f *FTL) RegionValid() int { return f.Man.TotalValid(ftl.RoleSub) }

// HashLoad returns the subpage-mapping hash table's live entries and
// average probe length, for the paper's mapping-memory discussion.
func (f *FTL) HashLoad() (entries int, avgProbes float64) {
	return f.hash.Len(), f.hash.AverageProbes()
}

// writeFullAligned routes a complete aligned logical page to the full-page
// region, retiring any stale copies its sectors have elsewhere.
func (f *FTL) writeFullAligned(lpn int64, attrSmall int64) error {
	base := lpn * int64(f.PageSecs)
	for i := 0; i < f.PageSecs; i++ {
		f.dropSubCopy(base + int64(i))
	}
	return f.full.WriteSectors(lpn, f.identSlots, attrSmall)
}

// dropSubCopy removes lsn's subpage-region mapping, if any (its data is
// being superseded elsewhere).
func (f *FTL) dropSubCopy(lsn int64) {
	spn, ok := f.hash.Delete(lsn)
	if !ok {
		return
	}
	g := f.Dev.Geometry()
	f.rmapSub[spn] = mapping.None
	f.Man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))), -1)
	f.updated[lsn] = false
}

// dropFullCopy invalidates lsn's full-region copy, if any.
func (f *FTL) dropFullCopy(lsn int64) {
	if f.full.Holds(lsn) {
		f.slot1[0] = int(lsn % int64(f.PageSecs))
		f.full.TrimSectors(lsn/int64(f.PageSecs), f.slot1[:])
	}
}

// Write implements ftl.FTL, realizing the paper's §4.1 data placement: the
// flushed length decides the region. Large requests are split — full
// aligned pages to the full-page region, partial head/tail sectors to the
// subpage region (so even misaligned large writes never RMW). Small sync
// writes go straight to the subpage region; small async writes stage in
// the aligned buffer hoping to merge into full pages.
func (f *FTL) Write(lsn int64, sectors int, sync bool) error {
	if err := f.write(lsn, sectors, sync); err != nil {
		return err
	}
	return f.payGC()
}

func (f *FTL) write(lsn int64, sectors int, sync bool) error {
	if err := f.Admit(workload.OpWrite, lsn, sectors); err != nil {
		return err
	}
	g := f.Dev.Geometry()
	small := sectors < f.PageSecs
	lsns := f.SectorRun(lsn, sectors)
	// Observe before any placement decision (observe-then-classify): the
	// classifiers below must see the freshest prediction state.
	lifetime.ObserveWrite(f.Place, lsn, sectors, f.PageSecs)

	if !small {
		// Large request: bypass the buffer entirely.
		f.buf.Remove(lsns)
		ps := int64(f.PageSecs)
		i := 0
		partial := f.partialBuf[:0]
		for i < sectors {
			cur := lsn + int64(i)
			if cur%ps == 0 && sectors-i >= f.PageSecs {
				if err := f.writeFullAligned(cur/ps, 0); err != nil {
					f.partialBuf = partial[:0]
					return err
				}
				i += f.PageSecs
				continue
			}
			// Partial head/tail sector: subpage region, no RMW.
			partial = append(partial, cur)
			i++
		}
		f.partialBuf = partial[:0]
		if len(partial) > 0 {
			return f.subWriteRun(partial, 0)
		}
		return nil
	}

	if sync {
		f.buf.Remove(lsns)
		return f.subWriteSteered(lsns, int64(g.SubpageBytes))
	}

	fullPages, evicted := f.buf.Stage(lsns)
	for _, lpn := range fullPages {
		// Every sector of a merged page came from small requests; each is
		// charged its exact share (S_sub), i.e. request WAF 1.
		if err := f.writeFullAligned(lpn, f.smallAttrForPage(lpn)); err != nil {
			return err
		}
	}
	for _, group := range evicted {
		if err := f.subWriteSteered(group, int64(g.SubpageBytes)); err != nil {
			return err
		}
	}
	return nil
}

// subWriteSteered is the longevity gate in front of the subpage region:
// sectors of predicted-cold logical pages go straight to the full-page
// region (admitting them to the subpage region would only churn through
// its GC and retention eviction paths later), the rest take the normal
// erase-free subpage path. Under SizeRouted no page is cold.
func (f *FTL) subWriteSteered(lsns []int64, attrPerSector int64) error {
	g := f.Dev.Geometry()
	ps := int64(f.PageSecs)
	keep := f.steerBuf[:0]
	for i := 0; i < len(lsns); {
		lpn := lsns[i] / ps
		j := i
		for j < len(lsns) && lsns[j]/ps == lpn {
			j++
		}
		if f.Place.Class(lpn) != lifetime.ClassCold {
			keep = append(keep, lsns[i:j]...)
			i = j
			continue
		}
		slots := f.steerSlots[:0]
		for _, l := range lsns[i:j] {
			f.dropSubCopy(l)
			slots = append(slots, int(l%ps))
		}
		// A steered small write programs a full page (its RMW), the same
		// attribution convention as cgmFTL's small-write path.
		var attr int64
		if attrPerSector > 0 {
			attr = int64(g.PageBytes())
		}
		f.Counters.LifetimeSteered += int64(j - i)
		err := f.full.WriteSectors(lpn, slots, attr)
		f.steerSlots = slots[:0]
		if err != nil {
			f.steerBuf = keep[:0]
			return err
		}
		i = j
	}
	f.steerBuf = keep
	if len(keep) == 0 {
		return nil
	}
	return f.subWriteRun(keep, attrPerSector)
}

// smallAttrForPage sums the small-origin attribution for a full-page write
// of lpn.
func (f *FTL) smallAttrForPage(lpn int64) int64 {
	g := f.Dev.Geometry()
	var attr int64
	base := lpn * int64(f.PageSecs)
	for i := 0; i < f.PageSecs; i++ {
		if f.Ver.SmallOrigin(base + int64(i)) {
			attr += int64(g.SubpageBytes)
		}
	}
	return attr
}

// Read implements ftl.FTL. Lookup order is buffer, subpage region (hash),
// then full-page region; grouping full-region sectors by page keeps reads
// to one page sense per touched page.
func (f *FTL) Read(lsn int64, sectors int) error {
	if err := f.Admit(workload.OpRead, lsn, sectors); err != nil {
		return err
	}
	ps := int64(f.PageSecs)
	var fullLPN int64 = -1
	fullSlots := f.fullSlotsBuf[:0]
	flushFull := func() error {
		if fullLPN < 0 || len(fullSlots) == 0 {
			fullLPN = -1
			fullSlots = fullSlots[:0]
			return nil
		}
		err := f.full.ReadSectors(fullLPN, fullSlots)
		fullLPN = -1
		fullSlots = fullSlots[:0]
		return err
	}
	for i := 0; i < sectors; i++ {
		cur := lsn + int64(i)
		if f.buf.Contains(cur) {
			f.Counters.ReadBufferHits++
			continue
		}
		if spn, ok := f.hash.Get(cur); ok {
			stamp, err := f.Dev.ReadSubpage(nand.SubpageID(spn))
			if err != nil {
				return fmt.Errorf("core: subpage read of lsn %d: %w", cur, err)
			}
			want := nand.Stamp{LSN: cur, Version: f.Ver.Current(cur)}
			if stamp != want {
				return fmt.Errorf("core: integrity violation at lsn %d: got %v, want %v", cur, stamp, want)
			}
			continue
		}
		lpn, slot := cur/ps, int(cur%ps)
		if lpn != fullLPN {
			if err := flushFull(); err != nil {
				return err
			}
			fullLPN = lpn
		}
		fullSlots = append(fullSlots, slot)
	}
	err := flushFull()
	f.fullSlotsBuf = fullSlots[:0]
	return err
}

// Trim implements ftl.FTL.
func (f *FTL) Trim(lsn int64, sectors int) error {
	if err := f.Admit(workload.OpTrim, lsn, sectors); err != nil {
		return err
	}
	ps := int64(f.PageSecs)
	lsns := f.SectorRun(lsn, sectors)
	f.buf.Remove(lsns)
	for _, cur := range lsns {
		f.dropSubCopy(cur)
		f.slot1[0] = int(cur % ps)
		f.full.TrimSectors(cur/ps, f.slot1[:])
	}
	return nil
}

// Flush implements ftl.FTL: unmerged staged sectors go to the subpage
// region, exactly as if their page never completed.
func (f *FTL) Flush() error {
	g := f.Dev.Geometry()
	for _, group := range f.buf.Drain() {
		if err := f.subWriteSteered(group, int64(g.SubpageBytes)); err != nil {
			return err
		}
	}
	return f.payGC()
}

// payGC is the incremental write tax: with a budgeted collector, each
// host write settles at most one bounded collection step of whichever
// debt is due — a preempted region victim first (it pins a block
// mid-drain), then the free pool when it is at or below the reserve,
// then the subpage region's paced pre-drain. Region GC has no pool
// watermark to key on (its foreground trigger is running out of
// advanceable rounds, which flickers with every host overwrite), so its
// debt is paced by consumption instead: at quota, every subpage written
// eventually costs one GC visit, and the tax keeps collection that far
// ahead. Unbudgeted configurations pay nothing here: their collection is
// whole-block foreground drains only.
func (f *FTL) payGC() error {
	if !f.subCol.Budgeted() {
		return nil
	}
	if f.subCol.Active() || f.Man.FreeCount() <= f.cfg.GCReserveBlocks {
		return f.stepGC()
	}
	if f.subBlocks >= f.subQuota && f.gcDebt >= f.cfg.GC.StepPages {
		f.gcDebt -= f.cfg.GC.StepPages
		return f.subCol.StepIfAny(f.subTarget)
	}
	return nil
}

// Tick implements ftl.FTL: run the retention manager when due, then — with
// background GC slack configured — one bounded collection step whenever
// the free pool is within the slack of the out-of-space reserve or a
// preempted victim is pending. The pool is the right pressure signal:
// region-round exhaustion flickers with every host overwrite, so
// pre-draining on it only sacrifices open blocks' remaining rounds.
// Ticks are background-class commands in the host scheduler, so these
// steps yield to pending host reads.
func (f *FTL) Tick() error {
	if !f.cfg.DisableRetention {
		now := f.Dev.Clock().Now()
		if now.Sub(f.lastScrub) >= f.cfg.ScrubInterval {
			f.lastScrub = now
			if err := f.scrubRetention(now); err != nil {
				return err
			}
		}
	}
	idle := !f.subCol.Active() && !f.full.Collector().Active()
	if f.gcSlack <= 0 || (idle && f.Man.FreeCount() > f.cfg.GCReserveBlocks+f.gcSlack) {
		return nil
	}
	return f.stepGC()
}

// stepGC runs one bounded collection step: a preempted region victim first
// (it pins a block mid-drain), else the full-page log's, else — the spare
// space lives in the subpage region — the region's.
func (f *FTL) stepGC() error {
	if !f.subCol.Active() {
		if _, err := f.full.StepOnce(); !errors.Is(err, gc.ErrNoVictim) {
			return err
		}
	}
	return f.subCol.StepIfAny(f.subTarget)
}

// Stats implements ftl.FTL.
func (f *FTL) Stats() ftl.Stats {
	return f.Snapshot(f.full.MappingBytes()+f.hash.MemoryBytes(), f.full.Collector(), f.subCol)
}

// Submit implements ftl.Submitter, the host scheduler's non-blocking
// issue path.
func (f *FTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// ChipOf implements ftl.ChipProbe: subpage-region residents resolve to
// their subpage's chip, everything else falls through to the full-page
// region's mapping; buffered and unmapped sectors report -1.
func (f *FTL) ChipOf(lsn int64) int {
	if lsn < 0 || lsn >= f.Ver.Size() || f.buf.Contains(lsn) {
		return -1
	}
	if spn, ok := f.hash.Get(lsn); ok {
		g := f.Dev.Geometry()
		return g.ChipOf(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))))
	}
	return f.full.ChipOf(lsn / int64(f.PageSecs))
}
