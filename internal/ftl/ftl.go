// Package ftl defines the flash translation layer interface shared by the
// three FTLs the paper compares (cgmFTL, fgmFTL, subFTL), plus the
// building blocks they share: block lifecycle management with wear-aware
// allocation, the page-append log under the page-programming FTLs, and the
// per-sector version/origin tracker that powers both data-integrity
// checking and the paper's request-WAF metric.
package ftl

import (
	"errors"
	"fmt"

	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// ErrReadOnly reports a write to an FTL whose spare capacity has been
// exhausted by bad blocks: the device degrades to read-only service
// rather than wedging inside garbage collection.
var ErrReadOnly = errors.New("ftl: device degraded to read-only (spare capacity exhausted by bad blocks)")

// FTL is the host-facing interface of a flash translation layer. All
// addresses are logical sectors of S_sub bytes. Implementations are
// single-threaded, matching the deterministic simulator. It is one
// contract: every FTL offers the non-blocking issue path, the chip probe
// and the health and version probes, so no caller keeps a fallback for
// an FTL without them. The three product FTLs get admission, accounting,
// the health probe and the mount skeleton from the Front they embed.
type FTL interface {
	// Name identifies the FTL in reports ("cgmFTL", "fgmFTL", "subFTL").
	Name() string
	// Write services a host write of sectors starting at lsn. sync marks
	// a synchronous write that must reach flash without buffer merging.
	Write(lsn int64, sectors int, sync bool) error
	// Read services a host read.
	Read(lsn int64, sectors int) error
	// Trim invalidates a logical range.
	Trim(lsn int64, sectors int) error
	// Flush forces any buffered writes to flash.
	Flush() error
	// Tick lets the FTL run time-based maintenance (retention scrubbing).
	// The harness calls it between requests; FTLs without time-based work
	// treat it as a no-op.
	Tick() error
	// Stats returns a snapshot of the FTL's counters.
	Stats() Stats
	// Check verifies internal invariants, returning the first violation.
	// It is for tests and debugging; it must not change state.
	Check() error
	// Recover rebuilds the FTL's RAM state from the device after a power
	// loss: one OOB scan of every block, no payload reads. It must be
	// called on a freshly constructed FTL (mount time), before any host
	// I/O; calling it on a blank device yields an empty report and a
	// ready, empty FTL.
	Recover() (MountReport, error)

	Submitter
	ChipProbe
	HealthProber
	VersionProber
}

// MountReport summarizes one Recover pass.
type MountReport struct {
	// PagesScanned counts the whole-page OOB senses the scan issued.
	PagesScanned int64
	// BlocksAdopted counts non-empty blocks taken over from the pre-crash
	// state (conservatively adopted as full, GC-eligible blocks).
	BlocksAdopted int
	// TornPages counts subpage slots quarantined because power died
	// mid-program.
	TornPages int64
	// StaleSubpages counts valid OOB records that lost duplicate-LPN
	// resolution (an older generation superseded by a higher sequence
	// number).
	StaleSubpages int64
	// LiveSectors counts logical sectors restored into the mapping.
	LiveSectors int64
	// MaxSeq is the highest program sequence number observed.
	MaxSeq uint64
	// Duration is the virtual time the mount occupied the device (the
	// drain-horizon growth caused by the scan).
	Duration sim.Duration
}

// String renders the report for tool output.
func (r MountReport) String() string {
	return fmt.Sprintf("scanned %d pages, adopted %d blocks, %d live sectors, %d stale, %d torn, maxSeq %d in %v",
		r.PagesScanned, r.BlocksAdopted, r.LiveSectors, r.StaleSubpages, r.TornPages, r.MaxSeq, r.Duration)
}

// HealthProber exposes whether the FTL has degraded to read-only
// service (spare capacity exhausted by grown-bad blocks). The network
// server uses it after a remount to decide whether a fenced namespace
// can return to healthy or must land directly in read-only. The probe
// must not change state.
type HealthProber interface {
	ReadOnly() bool
}

// VersionProber exposes the FTL's view of a sector's recovered version: the
// version of the live copy a read would return, or 0 when the sector is
// unmapped. The crash-consistency checker compares it against the reference
// model's acceptable set.
type VersionProber interface {
	VersionOf(lsn int64) uint32
}

// OOB region tags, stamped into every program so the mount-time scan can
// dispatch a block to the mapping table that owns it. A round-0 subpage
// pass is otherwise indistinguishable from a full-page program. Zero marks
// an untagged program (direct device-level tests).
const (
	// TagFull marks the page-mapped full-page region (cgmFTL's whole
	// space; subFTL's full-page region).
	TagFull uint8 = 1
	// TagFine marks fgmFTL's packed fine-grain pages.
	TagFine uint8 = 2
	// TagSub marks subFTL's ESP subpage region.
	TagSub uint8 = 3
)

// CompletionFunc is invoked exactly once when a submitted request has
// been fully issued to the device, with the error the synchronous path
// would have returned. In the single-threaded simulator the callback
// runs before Submit returns; the indirection exists so the host
// scheduler's dispatch path is shaped like a real driver's and callers
// never depend on a return value that a future truly-asynchronous FTL
// would not have.
type CompletionFunc func(err error)

// Submitter is the non-blocking issue path of an FTL: Submit accepts one
// host request and reports its outcome through done. The host scheduler
// issues every host command through it.
type Submitter interface {
	Submit(r workload.Request, done CompletionFunc)
}

// ChipProbe lets the host scheduler route reads to per-chip command
// queues: ChipOf returns the chip currently holding logical sector lsn,
// or -1 when the sector is unmapped or buffered (in which case the read
// does not contend for any chip queue slot). The probe must not change
// FTL state or touch the device.
type ChipProbe interface {
	ChipOf(lsn int64) int
}

// Apply issues one host request to the FTL's synchronous interface and
// returns its outcome. It is the one place a request's op selects an FTL
// method: the serial replay and SubmitSync (behind every FTL's Submit)
// call it, so every driver hands the three FTLs a request the same way.
// Ops that are not FTL calls (OpAdvance) are an error here; the replay
// that understands idle gaps handles them first.
func Apply(f FTL, r workload.Request) error {
	switch r.Op {
	case workload.OpWrite:
		return f.Write(r.LSN, r.Sectors, r.Sync)
	case workload.OpRead:
		return f.Read(r.LSN, r.Sectors)
	case workload.OpTrim:
		return f.Trim(r.LSN, r.Sectors)
	case workload.OpFlush:
		return f.Flush()
	}
	return fmt.Errorf("ftl: cannot apply op %v", r.Op)
}

// SubmitSync adapts an FTL's synchronous interface to the Submit
// signature: it issues r via Apply and reports the outcome through done.
// FTLs call it to implement Submitter in one line.
func SubmitSync(f FTL, r workload.Request, done CompletionFunc) {
	err := Apply(f, r)
	if done != nil {
		done(err)
	}
}

// Stats aggregates the counters the experiments report. Fields that only
// one FTL produces are zero elsewhere.
type Stats struct {
	// Host-visible traffic.
	HostWriteReqs, HostReadReqs, HostTrimReqs int64
	HostSectorsWritten, HostSectorsRead       int64

	// Small writes (requests shorter than a full page) and the flash
	// bytes attributed to their data, including later relocations — the
	// numerator/denominator of the paper's average request WAF.
	SmallWriteReqs  int64
	SmallHostBytes  int64
	SmallFlashBytes int64

	// Mechanisms.
	RMWOps         int64 // read-modify-write operations
	GCInvocations  int64 // garbage collection victim selections
	GCMovedSectors int64 // valid sectors copied by GC
	GCSteps        int64 // incremental collection steps (one per budgeted increment)
	GCPagesCopied  int64 // relocation programs issued by the collectors
	GCPreemptions  int64 // background steps that stopped at the page budget
	RoundAdvances  int64 // subFTL: erase-free round advancements of a block
	SubShifts      int64 // subFTL: valid subpages shifted to the next subpage
	Evictions      int64 // subFTL: cold subpages evicted to the full-page region
	RetentionMoves int64 // subFTL: subpages moved because of retention age
	RegionReclaims int64 // subFTL: empty subpage blocks converted back to the pool
	BufferAbsorbed int64 // writes absorbed entirely in the write buffer
	ReadBufferHits int64 // reads served from the write buffer

	// Recovery mechanisms (all zero without fault injection).
	ProgramFailMoves int64 // writes replayed on a fresh block after a program failure
	ScrubRewrites    int64 // subFTL: near-expiry subpages rewritten by the scrubber
	// GrownBadBlocks snapshots the retired-block count (factory plus
	// grown) at Stats() time; like MappingBytes it is not diffed by Sub.
	GrownBadBlocks int64

	// GCPolicy names the victim-selection policy driving the collectors
	// ("greedy", "cost-benefit", "windowed"); a label, not a counter, so
	// Sub keeps it.
	GCPolicy string

	// Lifetime subsystem. ErasePolicy names the block manager's
	// erase-depth policy ("fixed-deep", the paper's, or "aero").
	ErasePolicy string
	// LifetimeObserves counts predictor updates (one per observed page
	// write); the Hot/Cold/Unknown counters tally the classification of
	// every write the placement logic consulted the predictor for. All
	// stay zero under the paper's size-routed placement.
	LifetimeObserves      int64
	LifetimeHotWrites     int64
	LifetimeColdWrites    int64
	LifetimeUnknownWrites int64
	// LifetimeSteered counts subFTL small writes steered into the
	// full-page region because their data was predicted cold (writes that
	// size-only routing would have sent to the subpage region).
	LifetimeSteered int64
	// LifetimeSegregated counts full-page programs routed to a cold
	// append stripe by the hot/cold block segregation in fgm/cgm and
	// subFTL's full-page region.
	LifetimeSegregated int64

	// Wear snapshots the per-block wear distribution at Stats() time;
	// like MappingBytes it is not diffed by Sub.
	Wear WearDist

	// MappingBytes is the L2P translation memory footprint.
	MappingBytes int64

	// SectorBytes is the logical sector size, recorded so derived metrics
	// need no out-of-band configuration.
	SectorBytes int64

	// Device mirrors the NAND-level counters at snapshot time.
	Device nand.Counters
}

// accumulate adds sign*o's value into every additive counter of s, the
// mirrored device counters included. It is the one list of those counters:
// Sub walks it with sign -1 and Add with +1, so the two cannot drift.
// Labels (GCPolicy, ErasePolicy), SectorBytes and the Stats()-time
// snapshots (GrownBadBlocks, Wear, MappingBytes) are not in it.
func (s *Stats) accumulate(o *Stats, sign int64) {
	s.HostWriteReqs += sign * o.HostWriteReqs
	s.HostReadReqs += sign * o.HostReadReqs
	s.HostTrimReqs += sign * o.HostTrimReqs
	s.HostSectorsWritten += sign * o.HostSectorsWritten
	s.HostSectorsRead += sign * o.HostSectorsRead
	s.SmallWriteReqs += sign * o.SmallWriteReqs
	s.SmallHostBytes += sign * o.SmallHostBytes
	s.SmallFlashBytes += sign * o.SmallFlashBytes
	s.RMWOps += sign * o.RMWOps
	s.GCInvocations += sign * o.GCInvocations
	s.GCMovedSectors += sign * o.GCMovedSectors
	s.GCSteps += sign * o.GCSteps
	s.GCPagesCopied += sign * o.GCPagesCopied
	s.GCPreemptions += sign * o.GCPreemptions
	s.RoundAdvances += sign * o.RoundAdvances
	s.SubShifts += sign * o.SubShifts
	s.Evictions += sign * o.Evictions
	s.RetentionMoves += sign * o.RetentionMoves
	s.RegionReclaims += sign * o.RegionReclaims
	s.BufferAbsorbed += sign * o.BufferAbsorbed
	s.ReadBufferHits += sign * o.ReadBufferHits
	s.ProgramFailMoves += sign * o.ProgramFailMoves
	s.ScrubRewrites += sign * o.ScrubRewrites
	s.LifetimeObserves += sign * o.LifetimeObserves
	s.LifetimeHotWrites += sign * o.LifetimeHotWrites
	s.LifetimeColdWrites += sign * o.LifetimeColdWrites
	s.LifetimeUnknownWrites += sign * o.LifetimeUnknownWrites
	s.LifetimeSteered += sign * o.LifetimeSteered
	s.LifetimeSegregated += sign * o.LifetimeSegregated
	d, od := &s.Device, &o.Device
	d.PageReads += sign * od.PageReads
	d.SubpageReads += sign * od.SubpageReads
	d.PagePrograms += sign * od.PagePrograms
	d.SubPrograms += sign * od.SubPrograms
	d.Erases += sign * od.Erases
	d.BytesWritten += sign * od.BytesWritten
	d.BytesRead += sign * od.BytesRead
	d.ReadFailures += sign * od.ReadFailures
	d.RetentionHits += sign * od.RetentionHits
	d.ReadRetries += sign * od.ReadRetries
	d.RetriedReads += sign * od.RetriedReads
	d.RetryFailures += sign * od.RetryFailures
	d.ProgramFailures += sign * od.ProgramFailures
	d.EraseFailures += sign * od.EraseFailures
	d.ShallowErases += sign * od.ShallowErases
	d.WearUnits += float64(sign) * od.WearUnits
	d.OOBScans += sign * od.OOBScans
	d.TornPrograms += sign * od.TornPrograms
}

// Sub returns the counter-wise difference s - prev, used by the experiment
// harness to isolate the measured phase from preconditioning. Labels, size
// fields and the Stats()-time snapshots keep s's values.
func (s Stats) Sub(prev Stats) Stats {
	s.accumulate(&prev, -1)
	return s
}

// Add folds another device's stats into s, for a fleet-level view of
// independent shards: counters sum, and so do the snapshots that are
// amounts (GrownBadBlocks, MappingBytes); Wear merges as a distribution
// (see WearDist.merge). Labels and SectorBytes keep s's values — shards are
// homogeneously configured.
func (s *Stats) Add(o Stats) {
	s.accumulate(&o, 1)
	s.GrownBadBlocks += o.GrownBadBlocks
	s.MappingBytes += o.MappingBytes
	s.Wear.merge(o.Wear)
}

// WearDist is a snapshot of the per-block wear distribution of a device:
// raw erase counts and effective wear (deep-erase equivalents, which
// diverge from erase counts once adaptive erase runs shallow cycles).
// P99 is nearest-rank over all physical blocks.
type WearDist struct {
	Blocks    int
	EraseMin  int
	EraseMax  int
	EraseMean float64
	EraseP99  int
	WearMin   float64
	WearMax   float64
	WearMean  float64
	WearP99   float64
}

// merge folds another device's wear distribution into w: block counts
// sum, extremes take the true min/max, means weight by block count. The
// P99s take the larger of the two — an upper bound on the merged
// distribution's p99, the exact value needing the per-block data the
// snapshots no longer carry.
func (w *WearDist) merge(o WearDist) {
	if o.Blocks == 0 {
		return
	}
	if w.Blocks == 0 {
		*w = o
		return
	}
	n, on := float64(w.Blocks), float64(o.Blocks)
	w.EraseMean = (w.EraseMean*n + o.EraseMean*on) / (n + on)
	w.WearMean = (w.WearMean*n + o.WearMean*on) / (n + on)
	w.Blocks += o.Blocks
	w.EraseMin = min(w.EraseMin, o.EraseMin)
	w.EraseMax = max(w.EraseMax, o.EraseMax)
	w.EraseP99 = max(w.EraseP99, o.EraseP99)
	w.WearMin = min(w.WearMin, o.WearMin)
	w.WearMax = max(w.WearMax, o.WearMax)
	w.WearP99 = max(w.WearP99, o.WearP99)
}

// AvgRequestWAF returns the paper's "average request WAF" of small writes:
// flash bytes written on behalf of small-request data divided by the bytes
// those requests carried. It returns 0 when no small writes occurred.
func (s Stats) AvgRequestWAF() float64 {
	if s.SmallHostBytes == 0 {
		return 0
	}
	return float64(s.SmallFlashBytes) / float64(s.SmallHostBytes)
}

// OverallWAF returns total flash bytes programmed over host bytes written.
func (s Stats) OverallWAF() float64 {
	host := s.HostSectorsWritten * s.SectorBytes
	if host == 0 {
		return 0
	}
	return float64(s.Device.BytesWritten) / float64(host)
}

// String renders the headline counters.
func (s Stats) String() string {
	return fmt.Sprintf("writes=%d reads=%d small=%d rmw=%d gc=%d erases=%d reqWAF=%.3f",
		s.HostWriteReqs, s.HostReadReqs, s.SmallWriteReqs, s.RMWOps,
		s.GCInvocations, s.Device.Erases, s.AvgRequestWAF())
}
