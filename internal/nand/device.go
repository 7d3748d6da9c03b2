package nand

import (
	"errors"
	"fmt"

	"espftl/internal/ecc"
	"espftl/internal/fault"
	"espftl/internal/metrics"
	"espftl/internal/sim"
)

// Config assembles a Device.
type Config struct {
	Geometry  Geometry
	Latency   LatencyModel
	Retention RetentionModel
	// EnableSubpageRead turns on the paper's §7 future-work extension:
	// reads of a single subpage at the (faster) ReadSubpage latency.
	// When off, every read senses the full page.
	EnableSubpageRead bool
	// DisableRetentionErrors turns the retention model into pure
	// bookkeeping: reads never fail with ErrUncorrectable. Used by
	// ablation experiments that quantify how often an FTL *would* have
	// lost data.
	DisableRetentionErrors bool
	// Fault, when non-nil, is consulted on every operation to inject
	// transient read disturbs, program/erase failures and factory bad
	// blocks. With Fault and Retry both nil the device takes the exact
	// fault-free code path, bit-identical to a build without them.
	Fault *fault.Injector
	// Retry, when non-nil, enables stepped read-retry: a sense whose BER
	// exceeds the ECC limit is re-read up to MaxRetries times, each step
	// relieving part of the raw BER and charging one more cell sense to
	// the chip timeline.
	Retry *ecc.RetryModel
}

// DefaultConfig returns the paper-calibrated device configuration.
func DefaultConfig() Config {
	return Config{
		Geometry:  DefaultGeometry,
		Latency:   DefaultLatency,
		Retention: DefaultRetention,
	}
}

// Counters aggregates device-level operation counts, the raw material for
// WAF and lifetime statistics.
type Counters struct {
	PageReads     int64
	SubpageReads  int64
	PagePrograms  int64
	SubPrograms   int64
	Erases        int64
	ShallowErases int64   // erases with depth < 1 (subset of Erases)
	WearUnits     float64 // cumulative erase depth: effective wear inflicted, in deep-erase equivalents
	BytesWritten  int64   // bytes physically programmed (subpage programs count S_sub)
	BytesRead     int64
	ReadFailures  int64 // uncorrectable / destroyed / unprogrammed reads
	RetentionHits int64 // subset of ReadFailures caused by retention expiry

	// Recovery-path counters (all zero when fault injection is off).
	ReadRetries     int64 // read-retry steps performed
	RetriedReads    int64 // reads recovered by at least one retry step
	RetryFailures   int64 // reads still uncorrectable after the retry budget
	ProgramFailures int64 // injected program failures
	EraseFailures   int64 // injected erase failures

	// Crash-consistency counters.
	OOBScans     int64 // mount-time whole-page OOB senses (ScanPageOOB)
	TornPrograms int64 // program ops cut mid-operation by power loss
}

// Device is the timed multi-channel NAND subsystem. All operations are
// driven by a shared virtual clock: an op is admitted at the earliest time
// its chip (and channel bus) can take it, and the clock advances to that
// admission time, which models bounded command queuing without a full
// event simulator.
//
// Device is not safe for concurrent use; the simulator is single-threaded
// by design so that runs are exactly reproducible.
type Device struct {
	cfg      Config
	clock    *sim.Clock
	chips    []*chip
	chipTL   []*sim.Timeline
	chanTL   []*sim.Timeline
	counters Counters
	// retryHist records read-retry steps per recovered/attempted read
	// (populated only on the recovery read path).
	retryHist *metrics.IntHistogram
	// seq is the device-global program-op sequence counter stamped into
	// every OOB record; it survives power loss (real controllers keep it
	// recoverable as max-over-scan, which is exactly how Recover uses it).
	seq uint64
	// ops counts every admitted operation, the index space the SPO
	// injector kills at. dead is set once power is cut; all operations
	// fail with ErrPowerLoss until PowerOn.
	ops  int64
	dead bool

	// Per-op scratch, sized once at construction so the steady-state
	// program/read/scan paths allocate nothing (guarded by AllocsPerRun
	// tests). allSubs is the constant identity run [0, SubpagesPerPage);
	// the rest are reused between calls — see the borrow contract on
	// ReadPage and ScanPageOOB.
	allSubs    []int
	subsBuf    []int
	readStamps []Stamp
	readErrs   []error
	readErrOps []OpError
	oobBuf     []SubpageOOB
}

// NewDevice builds a device from cfg, attached to the given clock. The
// clock may be shared with the FTL and workload layers.
func NewDevice(cfg Config, clock *sim.Clock) (*Device, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Latency.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Retention.Validate(); err != nil {
		return nil, err
	}
	if cfg.Retry != nil {
		if err := cfg.Retry.Validate(); err != nil {
			return nil, err
		}
	}
	if clock == nil {
		clock = sim.NewClock(0)
	}
	buckets := 8
	if cfg.Retry != nil && cfg.Retry.MaxRetries >= buckets {
		buckets = cfg.Retry.MaxRetries + 1
	}
	d := &Device{cfg: cfg, clock: clock, retryHist: metrics.NewIntHistogram(buckets)}
	n := cfg.Geometry.Chips()
	d.chips = make([]*chip, n)
	d.chipTL = make([]*sim.Timeline, n)
	for i := 0; i < n; i++ {
		d.chips[i] = newChip(cfg.Geometry)
		d.chipTL[i] = sim.NewTimeline(fmt.Sprintf("chip%d", i))
	}
	d.chanTL = make([]*sim.Timeline, cfg.Geometry.Channels)
	for i := range d.chanTL {
		d.chanTL[i] = sim.NewTimeline(fmt.Sprintf("chan%d", i))
	}
	sp := cfg.Geometry.SubpagesPerPage
	d.allSubs = make([]int, sp)
	for i := range d.allSubs {
		d.allSubs[i] = i
	}
	d.subsBuf = make([]int, sp)
	d.readStamps = make([]Stamp, sp)
	d.readErrs = make([]error, sp)
	d.readErrOps = make([]OpError, sp)
	d.oobBuf = make([]SubpageOOB, sp)
	return d, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.cfg.Geometry }

// Retention returns the device's retention model.
func (d *Device) Retention() *RetentionModel { return &d.cfg.Retention }

// Latency returns the device's latency model.
func (d *Device) Latency() LatencyModel { return d.cfg.Latency }

// Clock returns the shared virtual clock.
func (d *Device) Clock() *sim.Clock { return d.clock }

// Counters returns a snapshot of the operation counters.
func (d *Device) Counters() Counters { return d.counters }

// RetryHistogram returns the distribution of read-retry steps per read.
// It is only populated on the recovery read path (Fault or Retry set).
func (d *Device) RetryHistogram() *metrics.IntHistogram { return d.retryHist }

// Injector returns the configured fault injector, nil when faults are off.
func (d *Device) Injector() *fault.Injector { return d.cfg.Fault }

// FactoryBad reports whether the fault model marks block b bad from the
// factory. FTLs must never allocate factory-bad blocks.
func (d *Device) FactoryBad(b BlockID) bool {
	return d.cfg.Fault != nil && d.cfg.Fault.FactoryBad(int(b))
}

// DrainTime returns the virtual time at which every chip and channel has
// finished all admitted work — the completion horizon used to compute
// throughput.
func (d *Device) DrainTime() sim.Time {
	t := sim.MaxFree(d.chipTL)
	if c := sim.MaxFree(d.chanTL); c > t {
		t = c
	}
	if now := d.clock.Now(); now > t {
		t = now
	}
	return t
}

// OpCount returns how many device operations have been admitted so far —
// the index space ArmSPO addresses. A dry run of a workload yields the op
// count an SPO sweep then iterates over.
func (d *Device) OpCount() int64 { return d.ops }

// Alive reports whether the device has power.
func (d *Device) Alive() bool { return !d.dead }

// PowerOn restores power after an SPO. Flash content, wear counters and the
// sequence counter persist; everything RAM-side (the FTL) is gone and must
// be rebuilt by a mount-time Recover.
func (d *Device) PowerOn() { d.dead = false }

// beginOp admits one operation against the power-loss model. It returns
// tear=true when the SPO injector cut power mid-way through this very
// program operation (the caller must apply torn-page state and then fail
// with ErrPowerLoss); a non-nil error when the device is dead or was just
// killed at this op boundary.
func (d *Device) beginOp(isProgram bool) (tear bool, err error) {
	if d.dead {
		return false, ErrPowerLoss
	}
	idx := d.ops
	d.ops++
	if inj := d.cfg.Fault; inj != nil {
		if fire, torn := inj.SPO(idx); fire {
			d.dead = true
			if torn && isProgram {
				return true, nil
			}
			return false, ErrPowerLoss
		}
	}
	return false, nil
}

// chipFor resolves a block to its chip and channel timelines.
func (d *Device) chipFor(b BlockID) (*chip, *sim.Timeline, *sim.Timeline) {
	ci := d.cfg.Geometry.ChipOf(b)
	return d.chips[ci], d.chipTL[ci], d.chanTL[d.cfg.Geometry.ChannelOf(b)]
}

// admitWrite reserves the channel bus (for xfer) and the chip (for cell
// time), serialized in that order: data moves over the bus first, then the
// cell operation runs. It returns the chip phase's start and the op's end.
//
// The shared clock is NOT advanced: it tracks host/workload time only
// (think time, trace idle gaps), while queueing is fully captured by the
// per-resource timelines. Ops admitted while the clock stands still pack
// the timelines back-to-back, which is exactly the throughput (saturated
// queue) operating point the paper's IOPS experiments measure.
func (d *Device) admitWrite(chTL, chipTL *sim.Timeline, xfer, cell sim.Duration) (start, end sim.Time) {
	now := d.clock.Now()
	_, xEnd := chTL.Reserve(now, xfer)
	cStart, cEnd := chipTL.Reserve(xEnd, cell)
	return cStart, cEnd
}

// admitRead reserves the chip for the cell sensing plus the outbound data
// transfer. The transfer is folded into the chip occupation rather than
// reserved on the channel timeline: channel reservations must be issued in
// admission order for the single-pointer timelines to pack correctly, and
// a read's transfer slot is only known after its (late) cell completion.
// The approximation costs the channel model a few percent of idle
// over-accounting and nothing else — the chip, not the bus, is the
// bottleneck at these latencies.
func (d *Device) admitRead(chTL, chipTL *sim.Timeline, cell, xfer sim.Duration) (start, end sim.Time) {
	_ = chTL
	now := d.clock.Now()
	cStart, cEnd := chipTL.Reserve(now, cell+xfer)
	return cStart, cEnd
}

func (d *Device) checkPage(p PageID) error {
	if !d.cfg.Geometry.ValidPage(p) {
		return ErrBadAddress
	}
	return nil
}

// Erase erases block b at full depth. It returns the admission-to-
// completion interval of the operation on the chip timeline.
func (d *Device) Erase(b BlockID) (sim.Time, error) {
	return d.EraseAt(b, DepthFull)
}

// EraseAt erases block b at the given depth (see EraseDepth): shallow
// erases are proportionally faster and accrue proportionally less
// effective wear, at the cost of retention margin for the data programmed
// afterwards. EraseAt(b, DepthFull) is bit-identical to Erase(b).
func (d *Device) EraseAt(b BlockID, depth EraseDepth) (sim.Time, error) {
	if !d.cfg.Geometry.ValidBlock(b) {
		return 0, &OpError{Op: "erase", Block: b, Sub: -1, Err: ErrBadAddress}
	}
	if !depth.Valid() {
		return 0, &OpError{Op: "erase", Block: b, Sub: -1, Err: ErrBadDepth, Detail: fmt.Sprintf("depth %v", float64(depth))}
	}
	if _, err := d.beginOp(false); err != nil {
		return 0, &OpError{Op: "erase", Block: b, Sub: -1, Err: err}
	}
	ch, chipTL, _ := d.chipFor(b)
	now := d.clock.Now()
	_, end := chipTL.Reserve(now, d.cfg.Latency.EraseAtDepth(depth))
	lb := d.cfg.Geometry.LocalBlock(b)
	if inj := d.cfg.Fault; inj != nil && inj.EraseFail(d.cfg.Geometry.ChipOf(b), int(b), ch.blocks[lb].eraseCount) {
		// The erase aborted: the block keeps its (now untrustworthy)
		// content and wear count; the FTL retires it as grown bad.
		d.counters.EraseFailures++
		return end, &OpError{Op: "erase", Block: b, Sub: -1, Err: ErrEraseFail, Detail: "injected"}
	}
	ch.erase(lb, depth)
	d.counters.Erases++
	d.counters.WearUnits += float64(depth)
	if depth < DepthFull {
		d.counters.ShallowErases++
	}
	return end, nil
}

// ProgramPage writes a full page in one pass. stamps supplies one stamp
// per subpage slot; missing entries are padding. The page must be fully
// erased.
func (d *Device) ProgramPage(p PageID, stamps []Stamp) (sim.Time, error) {
	return d.ProgramPageTag(p, stamps, 0)
}

// ProgramPageTag is ProgramPage with an FTL region tag recorded in every
// slot's OOB, so a mount-time scan can dispatch the block to the right
// mapping table.
func (d *Device) ProgramPageTag(p PageID, stamps []Stamp, tag uint8) (sim.Time, error) {
	if err := d.checkPage(p); err != nil {
		return 0, &OpError{Op: "program", Block: d.cfg.Geometry.BlockOfPage(p), Page: d.cfg.Geometry.PageIndex(p), Sub: -1, Err: err}
	}
	g := d.cfg.Geometry
	b := g.BlockOfPage(p)
	ch, chipTL, chanTL := d.chipFor(b)
	tear, err := d.beginOp(true)
	if err != nil {
		return 0, &OpError{Op: "program", Block: b, Page: g.PageIndex(p), Sub: -1, Err: err}
	}
	if tear {
		ch.tornProgram(g.LocalBlock(b), g.PageIndex(p), d.allSubs, d.clock.Now())
		d.counters.TornPrograms++
		return 0, &OpError{Op: "program", Block: b, Page: g.PageIndex(p), Sub: -1, Err: ErrPowerLoss, Detail: "torn mid-program"}
	}
	xfer := d.cfg.Latency.Transfer(g.PageBytes())
	start, end := d.admitWrite(chanTL, chipTL, xfer, d.cfg.Latency.ProgramPage)
	d.seq++
	if err := ch.programPage(g.LocalBlock(b), g.PageIndex(p), stamps, start, d.seq, tag); err != nil {
		return 0, &OpError{Op: "program", Block: b, Page: g.PageIndex(p), Sub: -1, Err: err}
	}
	d.counters.PagePrograms++
	d.counters.BytesWritten += int64(g.PageBytes())
	if inj := d.cfg.Fault; inj != nil && inj.ProgramFail(g.ChipOf(b), int(b), d.EraseCount(b)) {
		ch.failProgram(g.LocalBlock(b), g.PageIndex(p), d.allSubs)
		d.counters.ProgramFailures++
		return end, &OpError{Op: "program", Block: b, Page: g.PageIndex(p), Sub: -1, Err: ErrProgramFail, Detail: "injected"}
	}
	return end, nil
}

// ProgramSubpage performs one erase-free subpage program (ESP) of a
// single subpage slot; see ProgramSubpageRun.
func (d *Device) ProgramSubpage(p PageID, sub int, stamp Stamp) (sim.Time, error) {
	return d.ProgramSubpageRun(p, sub, []Stamp{stamp})
}

// ProgramSubpageRun performs one erase-free program pass (ESP) writing
// len(stamps) consecutive subpage slots of page p starting at firstSub.
// The SBPI scheme selects bit lines individually (paper Fig. 3), so one
// pass may carry several subpages; its latency interpolates between the
// 1-subpage and full-page program times. The pass destroys the content of
// every previously programmed subpage of the page outside the run, and
// every slot in the run must be unprogrammed since the last erase.
func (d *Device) ProgramSubpageRun(p PageID, firstSub int, stamps []Stamp) (sim.Time, error) {
	return d.ProgramSubpageRunTag(p, firstSub, stamps, 0)
}

// ProgramSubpageRunTag is ProgramSubpageRun with an FTL region tag recorded
// in every written slot's OOB.
func (d *Device) ProgramSubpageRunTag(p PageID, firstSub int, stamps []Stamp, tag uint8) (sim.Time, error) {
	g := d.cfg.Geometry
	k := len(stamps)
	if err := d.checkPage(p); err != nil || firstSub < 0 || k < 1 || firstSub+k > g.SubpagesPerPage {
		return 0, &OpError{Op: "subprogram", Block: g.BlockOfPage(p), Page: g.PageIndex(p), Sub: firstSub, Err: ErrBadAddress}
	}
	b := g.BlockOfPage(p)
	ch, chipTL, chanTL := d.chipFor(b)
	// Reusable scratch: neither the chip's program path nor its tear/fail
	// paths retain the slice past the call.
	subs := d.subsBuf[:k]
	for i := range subs {
		subs[i] = firstSub + i
	}
	tear, err := d.beginOp(true)
	if err != nil {
		return 0, &OpError{Op: "subprogram", Block: b, Page: g.PageIndex(p), Sub: firstSub, Err: err}
	}
	if tear {
		ch.tornProgram(g.LocalBlock(b), g.PageIndex(p), subs, d.clock.Now())
		d.counters.TornPrograms++
		return 0, &OpError{Op: "subprogram", Block: b, Page: g.PageIndex(p), Sub: firstSub, Err: ErrPowerLoss, Detail: "torn mid-program"}
	}
	xfer := d.cfg.Latency.Transfer(k * g.SubpageBytes)
	cell := d.cfg.Latency.ProgramSubpages(k, g.SubpagesPerPage)
	start, end := d.admitWrite(chanTL, chipTL, xfer, cell)
	d.seq++
	if err := ch.programSubpages(g.LocalBlock(b), g.PageIndex(p), subs, stamps, start, d.seq, tag); err != nil {
		return 0, &OpError{Op: "subprogram", Block: b, Page: g.PageIndex(p), Sub: firstSub, Err: err}
	}
	d.counters.SubPrograms++
	d.counters.BytesWritten += int64(k) * int64(g.SubpageBytes)
	if inj := d.cfg.Fault; inj != nil && inj.ProgramFail(g.ChipOf(b), int(b), d.EraseCount(b)) {
		ch.failProgram(g.LocalBlock(b), g.PageIndex(p), subs)
		d.counters.ProgramFailures++
		return end, &OpError{Op: "subprogram", Block: b, Page: g.PageIndex(p), Sub: firstSub, Err: ErrProgramFail, Detail: "injected"}
	}
	return end, nil
}

// ReadSubpage reads one subpage's stamp, applying the reliability model.
// Without the subpage-read extension the full page is sensed (page read
// latency and full-page transfer); with it, only the subpage's share moves.
func (d *Device) ReadSubpage(s SubpageID) (Stamp, error) {
	g := d.cfg.Geometry
	if !g.ValidSubpage(s) {
		return Stamp{}, &OpError{Op: "read", Block: -1, Sub: g.SubIndex(s), Err: ErrBadAddress}
	}
	p := g.PageOfSubpage(s)
	sub := g.SubIndex(s)
	b := g.BlockOfPage(p)
	ch, chipTL, chanTL := d.chipFor(b)
	if _, err := d.beginOp(false); err != nil {
		return Stamp{}, &OpError{Op: "read", Block: b, Page: g.PageIndex(p), Sub: sub, Err: err}
	}

	cell := d.cfg.Latency.ReadPage
	bytes := g.PageBytes()
	if d.cfg.EnableSubpageRead {
		cell = d.cfg.Latency.ReadSubpage
		bytes = g.SubpageBytes
	}
	start, _ := d.admitRead(chanTL, chipTL, cell, d.cfg.Latency.Transfer(bytes))
	d.counters.BytesRead += int64(bytes)
	if d.cfg.EnableSubpageRead {
		d.counters.SubpageReads++
	} else {
		d.counters.PageReads++
	}

	stamp, retention, err := d.senseSubpage(ch, b, p, sub, start, chipTL, cell)
	if err != nil {
		if d.cfg.DisableRetentionErrors && retention && errors.Is(err, ErrUncorrectable) {
			d.counters.RetentionHits++
			// Bookkeeping mode: surface the data anyway.
			info := ch.subpageInfo(g.LocalBlock(b), g.PageIndex(p), sub)
			return info.Stamp, nil
		}
		d.counters.ReadFailures++
		if retention && errors.Is(err, ErrUncorrectable) {
			d.counters.RetentionHits++
		}
		return Stamp{}, &OpError{Op: "read", Block: b, Page: g.PageIndex(p), Sub: sub, Err: err}
	}
	return stamp, nil
}

// senseSubpage performs one subpage sense admitted at start, applying the
// reliability model, injected read disturbs, and stepped read-retry. The
// retention result reports whether a returned ErrUncorrectable was caused
// by the retention model itself (as opposed to an injected disturb) — the
// distinction DisableRetentionErrors bookkeeping needs. Retry steps are
// charged to the chip timeline at one stepCost each.
//
// With Fault and Retry both nil this delegates to the plain chip read,
// keeping the fault-free path bit-identical to a device without recovery.
func (d *Device) senseSubpage(ch *chip, b BlockID, p PageID, sub int, start sim.Time, chipTL *sim.Timeline, stepCost sim.Duration) (Stamp, bool, error) {
	g := d.cfg.Geometry
	lb, pi := g.LocalBlock(b), g.PageIndex(p)
	if d.cfg.Fault == nil && d.cfg.Retry == nil {
		st, _, err := ch.readSubpage(lb, pi, sub, start, &d.cfg.Retention)
		return st, true, err
	}
	blk := &ch.blocks[lb]
	slots, _ := ch.page(lb, pi)
	sp := &slots[sub]
	if err := sp.unreadable(); err != nil {
		return Stamp{}, false, err
	}
	m := &d.cfg.Retention
	limit := m.NormalizedECCLimit
	ber := m.NormalizedBERAt(sp.npp, AgeOf(sp.programmedAt, start), blk.effWear, blk.lastDepth)
	retention := ber > limit
	if inj := d.cfg.Fault; inj != nil {
		ber += inj.ReadDisturb(g.ChipOf(b), int(b), blk.eraseCount)
	}
	if ber <= limit {
		d.retryHist.Record(0)
		return sp.stamp(), retention, nil
	}
	// Stepped read-retry: re-sense with shifted read reference voltages
	// until the effective BER decodes or the budget runs out. Each step
	// occupies the chip for one more cell sense.
	steps := 0
	if rm := d.cfg.Retry; rm != nil {
		eff := ber
		for steps < rm.MaxRetries && eff > limit {
			steps++
			eff = rm.Effective(ber, steps)
		}
		if steps > 0 {
			chipTL.Reserve(start, stepCost*sim.Duration(steps))
			d.counters.ReadRetries += int64(steps)
		}
		d.retryHist.Record(steps)
		if eff <= limit {
			d.counters.RetriedReads++
			return sp.stamp(), retention, nil
		}
		d.counters.RetryFailures++
	} else {
		d.retryHist.Record(0)
	}
	return Stamp{}, retention, fmt.Errorf("nand: %d read retries exhausted (normalized BER %.2f, limit %.2f): %w", steps, ber, limit, ErrUncorrectable)
}

// ReadPage reads all subpages of a page. Slots that are erased, destroyed
// or expired are returned as padding stamps alongside a nil error only if
// at least the addressing was valid; per-slot failures are reported in the
// errs slice (index-aligned), since an FTL doing a read-modify-write needs
// the readable slots even when others are gone.
//
// Borrow contract: the returned slices are device-owned scratch, valid
// only until the next ReadPage or ScanPageOOB call on this device. A
// caller that issues further device operations while still holding the
// result (or stores it) must copy first. This keeps the steady-state read
// path allocation-free (see TestReadPageAllocs).
func (d *Device) ReadPage(p PageID) ([]Stamp, []error, error) {
	g := d.cfg.Geometry
	if err := d.checkPage(p); err != nil {
		return nil, nil, &OpError{Op: "read", Block: g.BlockOfPage(p), Page: 0, Sub: -1, Err: err}
	}
	b := g.BlockOfPage(p)
	ch, chipTL, chanTL := d.chipFor(b)
	if _, err := d.beginOp(false); err != nil {
		return nil, nil, &OpError{Op: "read", Block: b, Page: g.PageIndex(p), Sub: -1, Err: err}
	}
	start, _ := d.admitRead(chanTL, chipTL, d.cfg.Latency.ReadPage, d.cfg.Latency.Transfer(g.PageBytes()))
	d.counters.PageReads++
	d.counters.BytesRead += int64(g.PageBytes())

	stamps := d.readStamps[:g.SubpagesPerPage]
	errs := d.readErrs[:g.SubpagesPerPage]
	for i := range errs {
		errs[i] = nil
	}
	lb, pi := g.LocalBlock(b), g.PageIndex(p)
	for sub := 0; sub < g.SubpagesPerPage; sub++ {
		st, retention, err := d.senseSubpage(ch, b, p, sub, start, chipTL, d.cfg.Latency.ReadPage)
		// senseSubpage returns the slot-state sentinels bare, so the states
		// a partially-valid page is made of classify by identity.
		switch err {
		case nil:
			stamps[sub] = st
			continue
		case ErrNotProgrammed, ErrDestroyed:
			// Erased and ESP-destroyed slots are expected states of a
			// partially-valid page (RMW, GC of sub-region blocks), not
			// failed reads of live data.
		default:
			if retention && errors.Is(err, ErrUncorrectable) {
				d.counters.RetentionHits++
				if d.cfg.DisableRetentionErrors {
					// Bookkeeping mode: surface the data anyway.
					stamps[sub] = ch.subpageInfo(lb, pi, sub).Stamp
					continue
				}
			}
			d.counters.ReadFailures++
		}
		stamps[sub] = Padding
		// The error values share the borrow contract of the stamp and
		// error slices: device-owned scratch, reused by the next read.
		d.readErrOps[sub] = OpError{Op: "read", Block: b, Page: pi, Sub: sub, Err: err}
		errs[sub] = &d.readErrOps[sub]
	}
	return stamps, errs, nil
}

// ScanPageOOB senses the out-of-band area of every subpage slot of page p
// in one flash operation — the primitive a mount-time recovery scan is
// built from. It costs one page-sense of chip time but moves only the
// spare area over the bus (negligible), and it deliberately bypasses the
// payload reliability model: the OOB is encoded at a far stronger ECC rate
// than the payload, so mapping reconstruction never needs a data read.
//
// Borrow contract: the returned slice is device-owned scratch, valid only
// until the next ScanPageOOB or ReadPage call on this device; a retaining
// caller must copy (the FTLs' mount scan does).
func (d *Device) ScanPageOOB(p PageID) ([]SubpageOOB, error) {
	g := d.cfg.Geometry
	if err := d.checkPage(p); err != nil {
		return nil, &OpError{Op: "oobscan", Block: g.BlockOfPage(p), Page: 0, Sub: -1, Err: err}
	}
	b := g.BlockOfPage(p)
	ch, chipTL, _ := d.chipFor(b)
	if _, err := d.beginOp(false); err != nil {
		return nil, &OpError{Op: "oobscan", Block: b, Page: g.PageIndex(p), Sub: -1, Err: err}
	}
	chipTL.Reserve(d.clock.Now(), d.cfg.Latency.ReadPage)
	d.counters.OOBScans++
	return ch.pageOOB(g.LocalBlock(b), g.PageIndex(p), d.oobBuf[:g.SubpagesPerPage]), nil
}

// EraseCount returns the wear (erase cycles) of block b.
func (d *Device) EraseCount(b BlockID) int {
	ch, _, _ := d.chipFor(b)
	return ch.blocks[d.cfg.Geometry.LocalBlock(b)].eraseCount
}

// SetEraseCount force-sets the wear of block b: a hook for end-of-life
// experiments and tests that would otherwise need thousands of simulated
// erase cycles to reach the interesting wear region. Effective wear is
// pinned to the same value, as n full-depth cycles would have left it.
func (d *Device) SetEraseCount(b BlockID, n int) {
	ch, _, _ := d.chipFor(b)
	blk := &ch.blocks[d.cfg.Geometry.LocalBlock(b)]
	blk.eraseCount = n
	blk.effWear = float64(n)
}

// EffectiveWear returns block b's effective wear in deep-erase
// equivalents: the sum of the depths of every erase it has received. It
// equals float64(EraseCount(b)) on a device that only ever erased deep.
func (d *Device) EffectiveWear(b BlockID) float64 {
	ch, _, _ := d.chipFor(b)
	return ch.blocks[d.cfg.Geometry.LocalBlock(b)].effWear
}

// LastEraseDepth returns the depth of block b's most recent erase (zero if
// the block was never erased; the retention model reads that as full
// depth).
func (d *Device) LastEraseDepth(b BlockID) EraseDepth {
	ch, _, _ := d.chipFor(b)
	return ch.blocks[d.cfg.Geometry.LocalBlock(b)].lastDepth
}

// PagePasses returns how many program passes page p has received since its
// block's last erase.
func (d *Device) PagePasses(p PageID) int {
	g := d.cfg.Geometry
	b := g.BlockOfPage(p)
	ch, _, _ := d.chipFor(b)
	_, passes := ch.page(g.LocalBlock(b), g.PageIndex(p))
	return int(*passes)
}

// SubpageInfo returns a read-only snapshot of device-side subpage state.
// It is an introspection hook for tests and tools, not a data-path API.
func (d *Device) SubpageInfo(s SubpageID) SubpageInfo {
	g := d.cfg.Geometry
	p := g.PageOfSubpage(s)
	b := g.BlockOfPage(p)
	ch, _, _ := d.chipFor(b)
	return ch.subpageInfo(g.LocalBlock(b), g.PageIndex(p), g.SubIndex(s))
}

// ChipOps returns per-chip operation counts, for load-balance diagnostics.
func (d *Device) ChipOps() []int64 {
	out := make([]int64, len(d.chipTL))
	for i, tl := range d.chipTL {
		out[i] = tl.Ops()
	}
	return out
}

// ResourceFreeTimes snapshots the FreeAt of every device resource —
// chips first, then channel buses — into buf (grown as needed) and
// returns it. The host scheduler diffs snapshots taken around an FTL
// call to recover which resources a request's transaction touched and
// when its slowest fragment drains.
func (d *Device) ResourceFreeTimes(buf []sim.Time) []sim.Time {
	n := len(d.chipTL) + len(d.chanTL)
	if cap(buf) < n {
		buf = make([]sim.Time, n)
	}
	buf = buf[:n]
	for i, tl := range d.chipTL {
		buf[i] = tl.FreeAt()
	}
	for i, tl := range d.chanTL {
		buf[len(d.chipTL)+i] = tl.FreeAt()
	}
	return buf
}

// TotalChipBusy returns the cumulative busy time summed over all chips,
// the numerator of the device-wide utilization time series.
func (d *Device) TotalChipBusy() sim.Duration {
	var sum sim.Duration
	for _, tl := range d.chipTL {
		sum += tl.Busy()
	}
	return sum
}

// ChipUtilization returns per-chip busy fractions over the horizon ending
// at DrainTime, for parallelism diagnostics.
func (d *Device) ChipUtilization() []float64 {
	horizon := d.DrainTime()
	out := make([]float64, len(d.chipTL))
	for i, tl := range d.chipTL {
		out[i] = tl.Utilization(horizon)
	}
	return out
}
