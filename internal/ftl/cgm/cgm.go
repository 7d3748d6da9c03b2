// Package cgm implements cgmFTL, the paper's coarse-grained-mapping
// baseline: page-level L2P mapping with no write buffer, where every write
// smaller than (or misaligned to) a full page pays a read-modify-write.
package cgm

import (
	"fmt"

	"espftl/internal/ftl"
	"espftl/internal/ftl/fullpage"
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// Config parameterizes cgmFTL.
type Config struct {
	// LogicalSectors is the exported logical space in sectors; it must be
	// a multiple of the page size in sectors.
	LogicalSectors int64
	// GCReserveBlocks is the free-pool floor that triggers GC.
	GCReserveBlocks int
	// GC selects the victim policy, step budget and background slack.
	// The zero value is greedy, whole-block, no background.
	GC gc.Options
	// ErasePolicy chooses the depth of every block erase (adaptive erase;
	// see internal/lifetime). Nil is the paper's lifetime.FixedDeep.
	ErasePolicy lifetime.ErasePolicy
	// Lifetime, when true, enables longevity-aware placement: a per-LPN
	// update-interval predictor classifies host writes and predicted-cold
	// pages land on a dedicated append stripe (hot/cold block
	// segregation).
	Lifetime bool
}

// FTL is the cgmFTL instance: the shared front end over one full-page
// store.
type FTL struct {
	ftl.Front
	store *fullpage.Store

	// slotsBuf is forEachPage's reusable slot scratch. forEachPage never
	// nests (Write/Read/Trim each run one traversal at a time and the
	// store consumes the slots within the callback), so one buffer serves
	// the whole FTL and the steady-state I/O path allocates nothing.
	slotsBuf []int
}

var _ ftl.FTL = (*FTL)(nil)

// New builds a cgmFTL over the device.
func New(dev *nand.Device, cfg Config) (*FTL, error) {
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	if cfg.LogicalSectors <= 0 || cfg.LogicalSectors%ps != 0 {
		return nil, fmt.Errorf("cgm: LogicalSectors = %d must be a positive multiple of %d", cfg.LogicalSectors, ps)
	}
	if cfg.GCReserveBlocks < 2 {
		cfg.GCReserveBlocks = 2
	}
	fe, err := ftl.NewFront(dev, cfg.LogicalSectors, cfg.ErasePolicy, cfg.Lifetime)
	if err != nil {
		return nil, err
	}
	f := &FTL{Front: fe, slotsBuf: make([]int, g.SubpagesPerPage)}
	f.store, err = fullpage.New(&f.Front, fullpage.Config{
		LogicalPages: cfg.LogicalSectors / ps,
		Reserve:      cfg.GCReserveBlocks,
		GC:           cfg.GC,
	})
	if err != nil {
		return nil, err
	}
	// Read-only once bad blocks leave less than the logical space, the GC
	// reserve and the open append points need.
	f.Man.SetCapacityFloor(cfg.LogicalSectors, cfg.GCReserveBlocks+f.store.OpenBlocks())
	return f, nil
}

// Name implements ftl.FTL.
func (f *FTL) Name() string { return "cgmFTL" }

// forEachPage splits a sector range into per-logical-page slot lists.
func (f *FTL) forEachPage(lsn int64, sectors int, fn func(lpn int64, slots []int) error) error {
	ps := int64(f.PageSecs)
	for remaining := int64(sectors); remaining > 0; {
		lpn := lsn / ps
		start := int(lsn % ps)
		n := int(ps) - start
		if int64(n) > remaining {
			n = int(remaining)
		}
		slots := f.slotsBuf[:n]
		for i := range slots {
			slots[i] = start + i
		}
		if err := fn(lpn, slots); err != nil {
			return err
		}
		lsn += int64(n)
		remaining -= int64(n)
	}
	return nil
}

// Write implements ftl.FTL. cgmFTL has no write buffer, so sync is
// irrelevant: every request goes straight to flash, page by page. A
// request (or request fragment) that does not cover a whole page becomes
// a read-modify-write.
func (f *FTL) Write(lsn int64, sectors int, sync bool) error {
	if err := f.Admit(workload.OpWrite, lsn, sectors); err != nil {
		return err
	}
	// Attribution: a small request is charged the full pages it forces
	// flash to program (w(r) = S_full/s for a lone sector).
	var attr int64
	if sectors < f.PageSecs {
		attr = int64(f.Dev.Geometry().PageBytes())
	}
	if err := f.forEachPage(lsn, sectors, func(lpn int64, slots []int) error {
		f.Place.Observe(lpn)
		return f.store.WriteSectors(lpn, slots, attr)
	}); err != nil {
		return err
	}
	// Incremental write tax: one bounded collection step while the pool
	// is in debt (no-op for an unbudgeted collector).
	return f.store.Pay()
}

// Read implements ftl.FTL.
func (f *FTL) Read(lsn int64, sectors int) error {
	if err := f.Admit(workload.OpRead, lsn, sectors); err != nil {
		return err
	}
	return f.forEachPage(lsn, sectors, f.store.ReadSectors)
}

// Trim implements ftl.FTL.
func (f *FTL) Trim(lsn int64, sectors int) error {
	if err := f.Admit(workload.OpTrim, lsn, sectors); err != nil {
		return err
	}
	return f.forEachPage(lsn, sectors, func(lpn int64, slots []int) error {
		f.store.TrimSectors(lpn, slots)
		return nil
	})
}

// Flush implements ftl.FTL; cgmFTL is unbuffered.
func (f *FTL) Flush() error { return nil }

// Tick implements ftl.FTL: the log's background collection step.
func (f *FTL) Tick() error { return f.store.Tick() }

// Stats implements ftl.FTL.
func (f *FTL) Stats() ftl.Stats {
	return f.Snapshot(f.store.MappingBytes(), f.store.Collector())
}

// Check implements ftl.FTL.
func (f *FTL) Check() error { return f.store.Check() }

// Recover implements ftl.FTL: one OOB scan of the device rebuilds the
// coarse table, live-sector masks, per-block valid counts and the version
// tracker. cgmFTL owns every region, so all scanned blocks dispatch to the
// full-page store.
func (f *FTL) Recover() (ftl.MountReport, error) {
	return f.Mount(func(blocks []ftl.ScannedBlock, rep *ftl.MountReport) error {
		return f.store.Recover(blocks, nil, rep)
	})
}

// VersionOf implements ftl.VersionProber: the version a read of lsn would
// return, 0 when the sector holds no live data.
func (f *FTL) VersionOf(lsn int64) uint32 {
	if lsn < 0 || lsn >= f.Ver.Size() || !f.store.Holds(lsn) {
		return 0
	}
	return f.Ver.Current(lsn)
}

// Submit implements ftl.Submitter, the host scheduler's non-blocking
// issue path.
func (f *FTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// ChipOf implements ftl.ChipProbe: the chip holding a sector is the chip
// of its mapped logical page.
func (f *FTL) ChipOf(lsn int64) int {
	return f.store.ChipOf(lsn / int64(f.PageSecs))
}
