// Package espftl is the public API of the ESP/subFTL reproduction: a
// NAND flash SSD simulator with erase-free subpage programming (ESP)
// support and three flash translation layers — the paper's subFTL plus the
// cgmFTL and fgmFTL baselines — over a timed multi-channel device model.
//
// The quickest path:
//
//	ssd, err := espftl.New(espftl.Config{FTL: espftl.SubFTL})
//	if err != nil { ... }
//	err = ssd.Write(0, 1, true) // one synchronous 4-KB sector
//	err = ssd.Read(0, 1)
//	fmt.Println(ssd.Stats())
//
// Addresses are logical sectors of SubpageBytes (4 KB by default); Write's
// sync flag marks writes that must reach flash without buffer merging —
// the distinction at the heart of the paper's evaluation. All time is
// virtual: Stats and Elapsed report simulated device time, so runs are
// deterministic and reproducible.
package espftl

import (
	"time"

	"espftl/internal/experiment"
	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/nand"
)

// FTLKind selects the flash translation layer.
type FTLKind string

// The three FTLs of the paper's evaluation.
const (
	// CGMFTL is the coarse-grained-mapping baseline: page-level mapping,
	// read-modify-write for anything smaller than a 16-KB page.
	CGMFTL FTLKind = "cgmFTL"
	// FGMFTL is the fine-grained-mapping baseline: 4-KB mapping with a
	// write buffer; synchronous small writes fragment physical pages.
	FGMFTL FTLKind = "fgmFTL"
	// SubFTL is the paper's contribution: a hybrid FTL whose subpage
	// region absorbs small writes with erase-free subpage programming.
	SubFTL FTLKind = "subFTL"
)

// Geometry re-exports the device geometry type.
type Geometry = nand.Geometry

// Stats re-exports the FTL statistics snapshot.
type Stats = ftl.Stats

// FaultProfile re-exports the fault injector's probability profile; use
// fault.DefaultProfile-style values via DefaultFaultProfile.
type FaultProfile = fault.Profile

// ErrReadOnly is returned by Write once grown bad blocks have consumed the
// drive's spare capacity: reads keep working, writes are refused instead of
// wedging garbage collection.
var ErrReadOnly = ftl.ErrReadOnly

// DefaultFaultProfile returns a realistic deterministic fault profile for
// the given seed (read disturbs, program/erase failures, factory-bad
// blocks).
func DefaultFaultProfile(seed uint64) FaultProfile { return fault.DefaultProfile(seed) }

// Config assembles a simulated SSD.
type Config struct {
	// FTL picks the translation layer; default SubFTL.
	FTL FTLKind
	// Geometry defaults to the paper-style 8-channel x 4-chip fabric
	// (nand.DefaultGeometry).
	Geometry Geometry
	// LogicalSectors is the exported logical space; 0 derives 70 % of the
	// raw capacity.
	LogicalSectors int64
	// SubRegionFrac is subFTL's subpage-region share of blocks, in (0,1);
	// 0 picks the paper's 0.20. Ignored by the baselines.
	SubRegionFrac float64
	// EnableSubpageRead turns on the paper's §7 future-work extension.
	EnableSubpageRead bool
	// DisableRetention disables subFTL's retention manager (dangerous;
	// for experiments only).
	DisableRetention bool
	// Fault, when non-nil, arms the device's deterministic fault injector
	// with this profile and enables the read-retry recovery path. Nil
	// keeps the fault-free device, bit-identical to earlier releases.
	Fault *FaultProfile
}

// SSD is a simulated flash drive: a timed NAND device under one FTL.
type SSD struct {
	dev     *nand.Device
	f       ftl.FTL
	logical int64
}

// New builds a simulated SSD.
func New(cfg Config) (*SSD, error) {
	if cfg.FTL == "" {
		cfg.FTL = SubFTL
	}
	if cfg.Geometry.Channels == 0 {
		cfg.Geometry = nand.DefaultGeometry
	}
	dev, f, logical, err := experiment.BuildSized(experiment.RunConfig{
		Kind:              experiment.Kind(cfg.FTL),
		Geometry:          cfg.Geometry,
		SubRegionFrac:     cfg.SubRegionFrac,
		DisableRetention:  cfg.DisableRetention,
		EnableSubpageRead: cfg.EnableSubpageRead,
		FaultProfile:      cfg.Fault,
	}, cfg.LogicalSectors)
	if err != nil {
		return nil, err
	}
	return &SSD{dev: dev, f: f, logical: logical}, nil
}

// FTLName returns the active FTL's name.
func (s *SSD) FTLName() string { return s.f.Name() }

// Geometry returns the device geometry.
func (s *SSD) Geometry() Geometry { return s.dev.Geometry() }

// LogicalSectors returns the exported logical space in sectors.
func (s *SSD) LogicalSectors() int64 { return s.logical }

// Write services a host write of sectors 4-KB sectors starting at lsn.
// sync marks a synchronous write (fsync-style) that cannot wait in the
// write buffer.
func (s *SSD) Write(lsn int64, sectors int, sync bool) error {
	return s.f.Write(lsn, sectors, sync)
}

// Read services a host read. The simulator verifies internally that the
// returned data is the newest version of every sector; a non-nil error
// means either an invalid request or — should it ever happen — data loss.
func (s *SSD) Read(lsn int64, sectors int) error {
	return s.f.Read(lsn, sectors)
}

// Trim discards a logical range.
func (s *SSD) Trim(lsn int64, sectors int) error {
	return s.f.Trim(lsn, sectors)
}

// Flush forces buffered writes to flash.
func (s *SSD) Flush() error { return s.f.Flush() }

// Idle advances virtual time by d (host think time, retention aging) and
// runs the FTL's time-based maintenance.
func (s *SSD) Idle(d time.Duration) error {
	s.dev.Clock().Advance(d)
	return s.f.Tick()
}

// Stats returns the FTL's counter snapshot.
func (s *SSD) Stats() Stats { return s.f.Stats() }

// Elapsed returns the virtual device time consumed so far: the horizon at
// which all issued operations have completed.
func (s *SSD) Elapsed() time.Duration {
	return time.Duration(s.dev.DrainTime())
}

// Check verifies the FTL's internal invariants (for tests and debugging).
func (s *SSD) Check() error { return s.f.Check() }

// Device exposes the underlying NAND device for advanced inspection.
func (s *SSD) Device() *nand.Device { return s.dev }

// FTL exposes the underlying translation layer.
func (s *SSD) FTL() ftl.FTL { return s.f }
