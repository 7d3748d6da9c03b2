// Package fgm implements fgmFTL, the paper's fine-grained-mapping
// baseline: a log-structured FTL whose logical page equals the subpage
// size (4 KB), fronted by a write buffer that packs asynchronous small
// writes into full physical pages. Synchronous small writes must flush
// immediately and waste the rest of their physical page — the internal
// fragmentation that makes fgmFTL degrade as r_synch rises.
package fgm

import (
	"fmt"

	"espftl/internal/buffer"
	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/mapping"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// Config parameterizes fgmFTL.
type Config struct {
	// LogicalSectors is the exported logical space in sectors.
	LogicalSectors int64
	// GCReserveBlocks is the free-pool floor that triggers GC.
	GCReserveBlocks int
	// GC selects the victim policy, step budget and background slack.
	// The zero value is greedy, whole-block, no background.
	GC gc.Options
	// ErasePolicy chooses the depth of every block erase (adaptive erase;
	// see internal/lifetime). Nil is the paper's lifetime.FixedDeep.
	ErasePolicy lifetime.ErasePolicy
	// Lifetime, when true, enables longevity-aware placement: a per-page
	// update-interval predictor classifies each flush chunk by majority
	// vote and predicted-cold chunks land on a dedicated append stripe.
	Lifetime bool
}

// FTL is the fgmFTL instance: the shared front end over a fine-grained
// sector map. The front end's placement votes on flush-chunk placement.
type FTL struct {
	ftl.Front

	table *mapping.FineTable
	rmap  []int64 // SPN -> LSN
	buf   *buffer.Buffer

	// log is the page-append log: allocation, program-failure replay and
	// collection. fgm keeps the sector mapping and packs the pages.
	log *ftl.Log

	// gcCursor is the scan-phase page cursor, gcStaged the live sectors
	// awaiting repack (gcHead indexes the next entry so draining never
	// re-slices the buffer off its backing array), gcChunk a reusable chunk
	// buffer — together the per-victim checkpoint the collector resumes
	// across steps.
	gcCursor int
	gcStaged []gcStage
	gcHead   int
	gcChunk  []int64

	// liveBuf is the GC scan phase's reusable per-page live-slot list.
	liveBuf []int
}

// gcStage records one live sector found during the GC scan phase: the
// logical sector and the physical subpage it was staged from, so the
// repack phase can drop entries whose mapping moved between steps.
type gcStage struct {
	lsn, spn int64
}

var _ ftl.FTL = (*FTL)(nil)

// New builds an fgmFTL over the device.
func New(dev *nand.Device, cfg Config) (*FTL, error) {
	g := dev.Geometry()
	if cfg.LogicalSectors <= 0 {
		return nil, fmt.Errorf("fgm: LogicalSectors = %d", cfg.LogicalSectors)
	}
	if cfg.GCReserveBlocks < 2 {
		cfg.GCReserveBlocks = 2
	}
	// A logical space that is not a page multiple is accepted: the front
	// end's placement covers its partial last page.
	fe, err := ftl.NewFront(dev, cfg.LogicalSectors, cfg.ErasePolicy, cfg.Lifetime)
	if err != nil {
		return nil, err
	}
	f := &FTL{
		Front: fe,
		table: mapping.NewFineTable(cfg.LogicalSectors),
		rmap:  make([]int64, g.TotalSubpages()),
		buf:   buffer.New(g.SubpagesPerPage),
	}
	for i := range f.rmap {
		f.rmap[i] = mapping.None
	}
	f.log, err = ftl.NewLog(dev, f.Man, &f.Counters, ftl.LogConfig{
		Reserve:       cfg.GCReserveBlocks,
		GC:            cfg.GC,
		UnitsPerBlock: g.SubpagesPerBlock(),
		Tag:           ftl.TagFine,
		Cold:          f.Place.ColdStripe(),
	}, (*fgmOwner)(f))
	if err != nil {
		return nil, err
	}
	// Read-only once bad blocks leave less than the logical space, the GC
	// reserve and the open append points need.
	f.Man.SetCapacityFloor(cfg.LogicalSectors, cfg.GCReserveBlocks+f.log.OpenBlocks())
	return f, nil
}

// Name implements ftl.FTL.
func (f *FTL) Name() string { return "fgmFTL" }

// programPacked writes the given sectors into one physical page (padding
// unfilled slots) and remaps them. Packing arbitrary sectors into one
// page is what fine-grained mapping buys.
func (f *FTL) programPacked(lsns []int64, stream ftl.Stream) error {
	if len(lsns) == 0 || len(lsns) > f.PageSecs {
		return fmt.Errorf("fgm: packing %d sectors into a %d-sector page", len(lsns), f.PageSecs)
	}
	g := f.Dev.Geometry()
	stamps := f.log.Stamps()
	for slot := range stamps {
		stamps[slot] = nand.Padding
	}
	for slot, lsn := range lsns {
		stamps[slot] = nand.Stamp{LSN: lsn, Version: f.Ver.Current(lsn)}
	}
	if stream == ftl.StreamHost && f.Counters.TallyClass(f.vote(lsns)) {
		stream = ftl.StreamCold
	}
	p, err := f.log.Append(stream, stamps)
	if err != nil {
		return err
	}
	blk := g.BlockOfPage(p)
	for slot, lsn := range lsns {
		spn := int64(g.SubpageOf(p, slot))
		old := f.table.Update(lsn, spn)
		f.rmap[spn] = lsn
		f.Man.AddValid(blk, 1)
		if old != mapping.None {
			f.Man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(old))), -1)
		}
	}
	return nil
}

// vote is the longevity verdict on one host flush chunk: each sector's
// logical page gets the placement's class, and the chunk takes whichever
// class holds a strict majority, else unknown (fgm places chunks, not
// pages). Under SizeRouted every sector answers ClassNone, so the chunk
// does too.
func (f *FTL) vote(lsns []int64) lifetime.Class {
	ps := int64(f.PageSecs)
	var votes [lifetime.ClassNone + 1]int
	for _, lsn := range lsns {
		votes[f.Place.Class(lsn/ps)]++
	}
	for c, n := range votes {
		if n > len(lsns)/2 {
			return lifetime.Class(c)
		}
	}
	return lifetime.ClassUnknown
}

// flushGroup writes one buffer flush group to flash, splitting it into
// page-sized chunks and attributing flash bytes to small-origin sectors.
func (f *FTL) flushGroup(lsns []int64) error {
	g := f.Dev.Geometry()
	for len(lsns) > 0 {
		n := f.PageSecs
		if n > len(lsns) {
			n = len(lsns)
		}
		chunk := lsns[:n]
		lsns = lsns[n:]
		if err := f.programPacked(chunk, ftl.StreamHost); err != nil {
			return err
		}
		// Each sector's share of the program is PageBytes/len(chunk);
		// a lone sync sector is charged the whole page (w = N_sub).
		share := int64(g.PageBytes()) / int64(n)
		for _, lsn := range chunk {
			if f.Ver.SmallOrigin(lsn) {
				f.Counters.SmallFlashBytes += share
			}
		}
	}
	return nil
}

// Write implements ftl.FTL.
func (f *FTL) Write(lsn int64, sectors int, sync bool) error {
	if err := f.Admit(workload.OpWrite, lsn, sectors); err != nil {
		return err
	}
	lifetime.ObserveWrite(f.Place, lsn, sectors, f.PageSecs)
	before := f.buf.Absorbed()
	groups := f.buf.Write(f.SectorRun(lsn, sectors), sync)
	f.Counters.BufferAbsorbed += f.buf.Absorbed() - before
	for _, grp := range groups {
		if err := f.flushGroup(grp.LSNs); err != nil {
			return err
		}
	}
	// Incremental write tax: one bounded collection step while the pool
	// is in debt (no-op for an unbudgeted collector).
	return f.log.Pay()
}

// Read implements ftl.FTL. Sectors resident in the write buffer are
// served from RAM; the rest cost one flash page read each (fine-grained
// data is scattered, so no page grouping is attempted).
func (f *FTL) Read(lsn int64, sectors int) error {
	if err := f.Admit(workload.OpRead, lsn, sectors); err != nil {
		return err
	}
	for i := 0; i < sectors; i++ {
		cur := lsn + int64(i)
		if f.buf.Contains(cur) {
			f.Counters.ReadBufferHits++
			continue
		}
		spn := f.table.Lookup(cur)
		if spn == mapping.None {
			continue // unwritten sectors read as zeroes
		}
		stamp, err := f.Dev.ReadSubpage(nand.SubpageID(spn))
		if err != nil {
			return err
		}
		want := nand.Stamp{LSN: cur, Version: f.Ver.Current(cur)}
		if stamp != want {
			return fmt.Errorf("fgm: integrity violation at lsn %d: got %v, want %v", cur, stamp, want)
		}
	}
	return nil
}

// Trim implements ftl.FTL.
func (f *FTL) Trim(lsn int64, sectors int) error {
	if err := f.Admit(workload.OpTrim, lsn, sectors); err != nil {
		return err
	}
	lsns := f.SectorRun(lsn, sectors)
	f.buf.Trim(lsns)
	g := f.Dev.Geometry()
	for _, cur := range lsns {
		if old := f.table.Invalidate(cur); old != mapping.None {
			f.Man.AddValid(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(old))), -1)
		}
	}
	return nil
}

// Flush implements ftl.FTL: drain the write buffer.
func (f *FTL) Flush() error {
	for _, grp := range f.buf.Drain() {
		if err := f.flushGroup(grp.LSNs); err != nil {
			return err
		}
	}
	return nil
}

// Tick implements ftl.FTL: the log's background collection step.
func (f *FTL) Tick() error { return f.log.Tick() }

// fgmOwner is fgmFTL's ftl.LogOwner face. Collection runs in two phases
// riding one checkpoint: first the victim is scanned page by page
// (live sectors staged, dead pages skipped free of budget), then the
// staged sectors are repacked one physical page per Work call. The
// repack drops entries whose mapping moved between steps — an
// overwrite made the staged copy stale, or a trim cleared it, and
// reprogramming a trimmed sector would resurrect it.
type fgmOwner FTL

// Refill implements ftl.LogOwner: fgm pays its write tax once per host
// request (end of Write), never mid-allocation.
func (o *fgmOwner) Refill() error { return nil }

// Begin implements ftl.LogOwner: reset the two-phase checkpoint.
func (o *fgmOwner) Begin(nand.BlockID) {
	o.gcCursor = 0
	o.gcStaged = o.gcStaged[:0]
	o.gcHead = 0
}

// Work implements ftl.LogOwner.
func (o *fgmOwner) Work(victim nand.BlockID) (int, bool, error) {
	f := (*FTL)(o)
	g := f.Dev.Geometry()
	// Phase 1: scan the victim, staging live sectors. One page read per
	// Work call; pages with nothing live cost no device work and are
	// skipped without charging the step budget.
	for f.gcCursor < g.PagesPerBlock {
		p := g.PageOf(victim, f.gcCursor)
		f.gcCursor++
		// Find live sectors in this page before paying for the read.
		liveSlots := f.liveBuf[:0]
		for slot := 0; slot < f.PageSecs; slot++ {
			spn := int64(g.SubpageOf(p, slot))
			lsn := f.rmap[spn]
			if lsn != mapping.None && f.table.Lookup(lsn) == spn {
				liveSlots = append(liveSlots, slot)
			}
		}
		f.liveBuf = liveSlots[:0]
		if len(liveSlots) == 0 {
			continue
		}
		stamps, errs, err := f.Dev.ReadPage(p)
		if err != nil {
			return 0, false, err
		}
		for _, slot := range liveSlots {
			if errs[slot] != nil {
				return 0, false, fmt.Errorf("fgm: GC lost subpage %d of block %d: %w", slot, victim, errs[slot])
			}
			f.gcStaged = append(f.gcStaged, gcStage{lsn: stamps[slot].LSN, spn: int64(g.SubpageOf(p, slot))})
		}
		return 0, false, nil
	}
	// Phase 2: repack, one physical page per call, dropping entries
	// whose mapping moved since they were staged.
	chunk := f.gcChunk[:0]
	for f.gcHead < len(f.gcStaged) && len(chunk) < f.PageSecs {
		st := f.gcStaged[f.gcHead]
		f.gcHead++
		if f.rmap[st.spn] != st.lsn || f.table.Lookup(st.lsn) != st.spn {
			continue
		}
		chunk = append(chunk, st.lsn)
	}
	f.gcChunk = chunk
	if len(chunk) == 0 {
		return 0, true, nil
	}
	if err := f.programPacked(chunk, ftl.StreamGC); err != nil {
		return 0, false, err
	}
	for _, lsn := range chunk {
		f.Counters.GCMovedSectors++
		if f.Ver.SmallOrigin(lsn) {
			f.Counters.SmallFlashBytes += int64(g.SubpageBytes)
		}
	}
	return 1, f.gcHead == len(f.gcStaged), nil
}

// Stats implements ftl.FTL.
func (f *FTL) Stats() ftl.Stats {
	return f.Snapshot(f.table.MemoryBytes(), f.log.Collector())
}

// Check implements ftl.FTL.
func (f *FTL) Check() error {
	g := f.Dev.Geometry()
	perBlock := make(map[nand.BlockID]int)
	mapped := 0
	for lsn := int64(0); lsn < f.table.Size(); lsn++ {
		spn := f.table.Lookup(lsn)
		if spn == mapping.None {
			continue
		}
		mapped++
		if f.rmap[spn] != lsn {
			return fmt.Errorf("fgm: rmap[%d] = %d, want %d", spn, f.rmap[spn], lsn)
		}
		perBlock[g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn)))]++
	}
	if mapped != f.table.Mapped() {
		return fmt.Errorf("fgm: table reports %d mapped, found %d", f.table.Mapped(), mapped)
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		want := perBlock[id]
		if f.Man.State(id) == ftl.StateFree {
			if want != 0 {
				return fmt.Errorf("fgm: free block %d holds %d valid sectors", id, want)
			}
			continue
		}
		if got := f.Man.Valid(id); got != want {
			return fmt.Errorf("fgm: block %d valid = %d, want %d", id, got, want)
		}
	}
	return f.Man.CheckIndex()
}

// Recover implements ftl.FTL: one OOB scan rebuilds the fine-grained table
// and per-block valid counts. Every valid slot is a per-sector candidate;
// duplicate LSNs resolve to the highest program sequence number.
func (f *FTL) Recover() (ftl.MountReport, error) {
	return f.Mount(f.rebuild)
}

// rebuild is fgm's half of a mount, over the scanned blocks.
func (f *FTL) rebuild(blocks []ftl.ScannedBlock, rep *ftl.MountReport) error {
	g := f.Dev.Geometry()
	type winner struct {
		spn int64
		seq uint64
		ver uint32
	}
	win := make(map[int64]winner)
	for _, blk := range blocks {
		for pi, slots := range blk.Pages {
			p := g.PageOf(blk.Block, pi)
			for slot, sl := range slots {
				if sl.State != nand.OOBValid || sl.OOB.Stamp.IsPadding() {
					continue
				}
				lsn := sl.OOB.Stamp.LSN
				if lsn < 0 || lsn >= f.table.Size() {
					continue // foreign or pre-FTL test data; never adopt
				}
				spn := int64(g.SubpageOf(p, slot))
				if w, ok := win[lsn]; !ok || sl.OOB.Seq > w.seq {
					if ok {
						rep.StaleSubpages++
					}
					win[lsn] = winner{spn: spn, seq: sl.OOB.Seq, ver: sl.OOB.Stamp.Version}
				} else {
					rep.StaleSubpages++
				}
			}
		}
	}
	perBlock := make(map[nand.BlockID]int)
	for lsn, w := range win {
		// Only the winning copy re-seeds the version tracker: a stale copy
		// can out-version the winner (trim resets the counter), and the read
		// path verifies stamps against ver.Current.
		f.Ver.Restore(lsn, w.ver)
		f.table.Update(lsn, w.spn)
		f.rmap[w.spn] = lsn
		perBlock[g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(w.spn)))]++
		rep.LiveSectors++
	}
	for _, blk := range blocks {
		if err := f.Man.Adopt(blk.Block, ftl.RoleFull, perBlock[blk.Block]); err != nil {
			return err
		}
		rep.BlocksAdopted++
	}
	return nil
}

// VersionOf implements ftl.VersionProber: the version a read of lsn would
// return, 0 when the sector holds no live data.
func (f *FTL) VersionOf(lsn int64) uint32 {
	if lsn < 0 || lsn >= f.table.Size() {
		return 0
	}
	if f.buf.Contains(lsn) || f.table.Lookup(lsn) != mapping.None {
		return f.Ver.Current(lsn)
	}
	return 0
}

// Submit implements ftl.Submitter, the host scheduler's non-blocking
// issue path.
func (f *FTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// ChipOf implements ftl.ChipProbe: the chip holding the sector's mapped
// subpage, or -1 for buffered and unmapped sectors (which never touch a
// chip on read).
func (f *FTL) ChipOf(lsn int64) int {
	if lsn < 0 || lsn >= f.table.Size() || f.buf.Contains(lsn) {
		return -1
	}
	spn := f.table.Lookup(lsn)
	if spn == mapping.None {
		return -1
	}
	g := f.Dev.Geometry()
	return g.ChipOf(g.BlockOfPage(g.PageOfSubpage(nand.SubpageID(spn))))
}
