package ftl

import (
	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// Front is the host-facing half of an FTL, written once for the three the
// paper compares: cgmFTL, fgmFTL and subFTL embed it and differ only in the
// mapping and placement behind it. It owns what every host request passes
// through before it reaches a mapping (admission: range check, read-only
// refusal, host counters, version tracker), the health probe, the skeleton
// of a mount around each FTL's own rebuild, and the Stats snapshot.
type Front struct {
	Dev *nand.Device
	Man *Manager
	Ver *Versions
	// Counters are the FTL's running counters; Snapshot completes a copy.
	Counters Stats
	// Place is the data-placement policy (lifetime.SizeRouted, the
	// paper's, unless longevity-aware placement is on).
	Place lifetime.Placement
	// PageSecs is the physical page size in sectors.
	PageSecs int

	runBuf []int64 // SectorRun's scratch
}

// NewFront builds the front end of an FTL exporting logicalSectors host
// sectors. erase chooses the manager's erase depth (nil is the paper's
// lifetime.FixedDeep); predict turns on longevity-aware placement over the
// logical pages the space touches, a partial last page included.
func NewFront(dev *nand.Device, logicalSectors int64, erase lifetime.ErasePolicy, predict bool) (Front, error) {
	ps := int64(dev.Geometry().SubpagesPerPage)
	place, err := lifetime.NewPlacement(predict, (logicalSectors+ps-1)/ps)
	if err != nil {
		return Front{}, err
	}
	return Front{
		Dev:      dev,
		Man:      NewManager(dev, erase),
		Ver:      NewVersions(logicalSectors),
		Place:    place,
		PageSecs: int(ps),
	}, nil
}

// Admit is the one admission step of a host write, read or trim of
// [lsn, lsn+sectors): the range check, then ErrReadOnly for a write, then
// the host counters, then the version tracker — a write bumps every
// sector's version and records whether the request was small (shorter than
// a page), a trim clears them. A refused request changes nothing.
func (f *Front) Admit(op workload.Op, lsn int64, sectors int) error {
	if err := f.Ver.CheckRange(lsn, sectors); err != nil {
		return err
	}
	c, end := &f.Counters, lsn+int64(sectors)
	switch op {
	case workload.OpWrite:
		if f.Man.ReadOnly() {
			return ErrReadOnly
		}
		c.HostWriteReqs++
		c.HostSectorsWritten += int64(sectors)
		small := sectors < f.PageSecs
		if small {
			c.SmallWriteReqs++
			c.SmallHostBytes += int64(sectors) * int64(f.Dev.Geometry().SubpageBytes)
		}
		for l := lsn; l < end; l++ {
			f.Ver.Bump(l, small)
		}
	case workload.OpRead:
		c.HostReadReqs++
		c.HostSectorsRead += int64(sectors)
	case workload.OpTrim:
		c.HostTrimReqs++
		for l := lsn; l < end; l++ {
			f.Ver.Clear(l)
		}
	}
	return nil
}

// ReadOnly implements HealthProber: grown-bad blocks have eaten the spare
// capacity down to the floor.
func (f *Front) ReadOnly() bool { return f.Man.ReadOnly() }

// SectorRun returns [lsn, lsn+sectors) in reusable scratch, valid until the
// next SectorRun call.
func (f *Front) SectorRun(lsn int64, sectors int) []int64 {
	if cap(f.runBuf) < sectors {
		f.runBuf = make([]int64, sectors)
	}
	lsns := f.runBuf[:sectors]
	for i := range lsns {
		lsns[i] = lsn + int64(i)
	}
	return lsns
}

// Mount is the skeleton of every FTL's Recover: the one OOB scan of the
// device, the torn-slot and sequence aggregates over every scanned block,
// then rebuild — the FTL's own reconstruction of its mapping from the
// scanned blocks, which adds the adopted, live and stale counts to the
// report — then the placement reset (the predictor is RAM-only state) and
// the virtual time the mount occupied the device.
func (f *Front) Mount(rebuild func(blocks []ScannedBlock, rep *MountReport) error) (MountReport, error) {
	d0 := f.Dev.DrainTime()
	blocks, pages, err := scanBlocks(f.Dev)
	if err != nil {
		return MountReport{}, err
	}
	rep := MountReport{PagesScanned: pages}
	for _, b := range blocks {
		rep.TornPages += int64(b.Torn)
		rep.MaxSeq = max(rep.MaxSeq, b.MaxSeq)
	}
	if err := rebuild(blocks, &rep); err != nil {
		return MountReport{}, err
	}
	f.Place.Reset()
	rep.Duration = f.Dev.DrainTime().Sub(d0)
	return rep, nil
}

// Snapshot completes a copy of the running counters with the fields read
// off shared state at Stats() time: the L2P footprint the FTL reports, the
// collectors' counters (summed; the first names the policy), bad-block and
// wear figures, the erase policy's name, the placement's observation count
// and the device counters.
func (f *Front) Snapshot(mappingBytes int64, cols ...*gc.Collector) Stats {
	s := f.Counters
	for _, c := range cols {
		s.GCSteps += c.Steps()
		s.GCPagesCopied += c.PagesCopied()
		s.GCPreemptions += c.Preemptions()
	}
	s.GCPolicy = cols[0].PolicyName()
	s.MappingBytes = mappingBytes
	s.SectorBytes = int64(f.Dev.Geometry().SubpageBytes)
	s.GrownBadBlocks = int64(f.Man.bad)
	s.ErasePolicy = f.Man.erase.Name()
	s.LifetimeObserves = f.Place.Observes()
	s.Wear = f.Man.WearDist()
	s.Device = f.Dev.Counters()
	return s
}
