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
	Geometry Geometry
	// EnableSubpageRead turns on the paper's §7 future-work extension:
	// reads of a single subpage at the (faster) tReadSubpage latency.
	// When off, every read senses the full page.
	EnableSubpageRead bool
	// DisableRetentionErrors turns the retention model into pure
	// bookkeeping: reads never fail with ErrUncorrectable. Used by
	// ablation experiments that quantify how often an FTL *would* have
	// lost data.
	DisableRetentionErrors bool
	// Fault, when non-nil, is consulted on every operation to inject
	// transient read disturbs, program/erase failures and factory bad
	// blocks. With Fault nil and Retry off the device takes the exact
	// fault-free code path, bit-identical to a build without them.
	Fault *fault.Injector
	// Retry enables stepped read-retry: a sense whose BER exceeds the ECC
	// limit is re-read up to ecc.MaxRetries times, each step relieving
	// part of the raw BER (ecc.RetryBER) and charging one more cell sense
	// to the chip timeline.
	Retry bool
}

// DefaultConfig returns the paper's device configuration. The latency and
// retention calibration is fixed (latency.go, retention.go).
func DefaultConfig() Config {
	return Config{Geometry: DefaultGeometry}
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
	cfg   Config
	clock *sim.Clock
	chips []*chip
	// dec resolves an operation's address once, without dividing (see
	// decode.go).
	dec decoder
	// xfer[k] is the bus time of k subpages' data and passCell[k] the cell
	// time of a program pass of k subpages, for k up to SubpagesPerPage:
	// precomputed, like dec, so that no operation divides.
	xfer     []sim.Duration
	passCell []sim.Duration
	// tl holds every resource timeline, one per chip (same index as
	// chips) and then one per channel bus. Every reservation goes through
	// reserve, which keeps the running totals and the journal.
	tl []*sim.Timeline
	// drainAt is the latest FreeAt of any resource and chipBusy the busy
	// time summed over the chips. Timelines only ever move forward, so
	// both are exact running totals.
	drainAt  sim.Time
	chipBusy sim.Duration
	txn      txn
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
	// read and scan paths allocate nothing (guarded by AllocsPerRun
	// tests); reused between calls — see the borrow contract on ReadPage
	// and ScanPageOOB.
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
	if clock == nil {
		clock = sim.NewClock(0)
	}
	d := &Device{cfg: cfg, clock: clock, dec: newDecoder(cfg.Geometry), retryHist: metrics.NewIntHistogram(max(8, ecc.MaxRetries+1))}
	n := cfg.Geometry.Chips()
	d.chips = make([]*chip, n)
	d.tl = make([]*sim.Timeline, n+cfg.Geometry.Channels)
	for i := range d.tl {
		if i < n {
			d.chips[i] = newChip(cfg.Geometry, i)
			d.tl[i] = sim.NewTimeline(fmt.Sprintf("chip%d", i))
		} else {
			d.tl[i] = sim.NewTimeline(fmt.Sprintf("chan%d", i-n))
		}
	}
	d.txn = txn{touched: make([]touch, 0, len(d.tl)), seen: make([]bool, len(d.tl))}
	sp := cfg.Geometry.SubpagesPerPage
	d.readStamps = make([]Stamp, sp)
	d.readErrs = make([]error, sp)
	d.readErrOps = make([]OpError, sp)
	d.oobBuf = make([]SubpageOOB, sp)
	d.xfer = make([]sim.Duration, sp+1)
	d.passCell = make([]sim.Duration, sp+1)
	for k := range d.xfer {
		d.xfer[k] = transferTime(k * cfg.Geometry.SubpageBytes)
		d.passCell[k] = programTime(k, sp)
	}
	return d, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.cfg.Geometry }

// Clock returns the shared virtual clock.
func (d *Device) Clock() *sim.Clock { return d.clock }

// Counters returns a snapshot of the operation counters.
func (d *Device) Counters() Counters { return d.counters }

// BytesWritten is Counters().BytesWritten without copying the counters.
func (d *Device) BytesWritten() int64 { return d.counters.BytesWritten }

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
func (d *Device) DrainTime() sim.Time { return max(d.drainAt, d.clock.Now()) }

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

// touch is one journal entry: a resource and its FreeAt before the
// transaction first reserved it.
type touch struct {
	res    int
	before sim.Time
}

// txn is the journal of the open transaction (BeginTxn). Both slices are
// sized at construction, one entry per resource, so journaling never
// allocates.
type txn struct {
	open    bool
	touched []touch
	seen    []bool // per resource: already in touched
}

// reserve books resource res (an index into tl) and keeps the drain
// horizon, the chip busy total and the open journal up to date.
func (d *Device) reserve(res int, earliest sim.Time, dur sim.Duration) (start, end sim.Time) {
	tl := d.tl[res]
	if d.txn.open && !d.txn.seen[res] {
		d.txn.seen[res] = true
		d.txn.touched = append(d.txn.touched, touch{res, tl.FreeAt()})
	}
	start, end = tl.Reserve(earliest, dur)
	d.drainAt = max(d.drainAt, end)
	if res < len(d.chips) {
		d.chipBusy += dur
	}
	return start, end
}

// BeginTxn opens a transaction: from now until EndTxn the device journals
// every resource an operation reserves.
func (d *Device) BeginTxn() { d.txn.open = true }

// EndTxn closes the transaction opened by BeginTxn. It reports how many
// resources (chips and channel buses) the transaction's operations moved
// the FreeAt of, and the latest FreeAt among them — the instant the
// transaction's slowest fragment drains, zero if it moved none. Its cost
// is the number of resources touched, not the device size.
func (d *Device) EndTxn() (fanout int, end sim.Time) {
	for _, t := range d.txn.touched {
		d.txn.seen[t.res] = false
		if f := d.tl[t.res].FreeAt(); f != t.before {
			fanout++
			end = max(end, f)
		}
	}
	d.txn.touched = d.txn.touched[:0]
	d.txn.open = false
	return fanout, end
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
func (d *Device) admitWrite(chanRes, chipRes int, xfer, cell sim.Duration) (start, end sim.Time) {
	_, xEnd := d.reserve(chanRes, d.clock.Now(), xfer)
	return d.reserve(chipRes, xEnd, cell)
}

// admitRead reserves the chip for the cell sensing plus the outbound data
// transfer. The transfer is folded into the chip occupation rather than
// reserved on the channel timeline: channel reservations must be issued in
// admission order for the single-pointer timelines to pack correctly, and
// a read's transfer slot is only known after its (late) cell completion.
// The approximation costs the channel model a few percent of idle
// over-accounting and nothing else — the chip, not the bus, is the
// bottleneck at these latencies.
func (d *Device) admitRead(chipRes int, cell, xfer sim.Duration) (start, end sim.Time) {
	return d.reserve(chipRes, d.clock.Now(), cell+xfer)
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
	l := d.blockLoc(b)
	_, end := d.reserve(l.ch.index, d.clock.Now(), eraseTime(depth))
	if inj := d.cfg.Fault; inj != nil && inj.EraseFail(l.ch.index, int(b), l.block().ratedWear()) {
		// The erase aborted: the block keeps its (now untrustworthy)
		// content and wear count; the FTL retires it as grown bad.
		d.counters.EraseFailures++
		return end, &OpError{Op: "erase", Block: b, Sub: -1, Err: ErrEraseFail, Detail: "injected"}
	}
	l.ch.erase(l.lb, depth)
	d.counters.Erases++
	d.counters.WearUnits += float64(depth)
	if depth < DepthFull {
		d.counters.ShallowErases++
	}
	return end, nil
}

// lsnsFit reports whether every stamp's LSN fits a cell: PaddingLSN or in
// [0, maxAddress).
func lsnsFit(stamps []Stamp) bool {
	for i := range stamps {
		if uint64(stamps[i].LSN+1) > maxAddress {
			return false
		}
	}
	return true
}

// nextSeq advances the program sequence. A cell keeps 40 bits of it, so
// the device stops rather than wrap.
func (d *Device) nextSeq() uint64 {
	if d.seq >= maxSeq {
		panic("nand: program sequence exhausted (2^40 program operations)")
	}
	d.seq++
	return d.seq
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
	g := &d.cfg.Geometry
	if !g.ValidPage(p) {
		return 0, &OpError{Op: "program", Block: g.BlockOfPage(p), Page: g.PageIndex(p), Sub: -1, Err: ErrBadAddress}
	}
	l := d.pageLoc(p)
	if !lsnsFit(stamps[:min(len(stamps), g.SubpagesPerPage)]) {
		return 0, &OpError{Op: "program", Block: l.b, Page: l.pi, Sub: -1, Err: ErrBadLSN}
	}
	tear, err := d.beginOp(true)
	if err != nil {
		return 0, &OpError{Op: "program", Block: l.b, Page: l.pi, Sub: -1, Err: err}
	}
	if tear {
		l.ch.tornProgram(l.lb, l.pi, 0, g.SubpagesPerPage, d.clock.Now())
		d.counters.TornPrograms++
		return 0, &OpError{Op: "program", Block: l.b, Page: l.pi, Sub: -1, Err: ErrPowerLoss, Detail: "torn mid-program"}
	}
	start, end := d.admitWrite(l.ch.bus, l.ch.index, d.xfer[g.SubpagesPerPage], tProgPage)
	if err := l.ch.programPage(l.lb, l.pi, stamps, start, d.nextSeq(), tag); err != nil {
		return 0, &OpError{Op: "program", Block: l.b, Page: l.pi, Sub: -1, Err: err}
	}
	d.counters.PagePrograms++
	d.counters.BytesWritten += int64(g.PageBytes())
	if inj := d.cfg.Fault; inj != nil && inj.ProgramFail(l.ch.index, int(l.b), l.block().ratedWear()) {
		l.ch.failProgram(l.lb, l.pi, 0, g.SubpagesPerPage)
		d.counters.ProgramFailures++
		return end, &OpError{Op: "program", Block: l.b, Page: l.pi, Sub: -1, Err: ErrProgramFail, Detail: "injected"}
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
	g := &d.cfg.Geometry
	k := len(stamps)
	if !g.ValidPage(p) || firstSub < 0 || k < 1 || firstSub+k > g.SubpagesPerPage {
		return 0, &OpError{Op: "subprogram", Block: g.BlockOfPage(p), Page: g.PageIndex(p), Sub: firstSub, Err: ErrBadAddress}
	}
	l := d.pageLoc(p)
	if !lsnsFit(stamps) {
		return 0, &OpError{Op: "subprogram", Block: l.b, Page: l.pi, Sub: firstSub, Err: ErrBadLSN}
	}
	tear, err := d.beginOp(true)
	if err != nil {
		return 0, &OpError{Op: "subprogram", Block: l.b, Page: l.pi, Sub: firstSub, Err: err}
	}
	if tear {
		l.ch.tornProgram(l.lb, l.pi, firstSub, k, d.clock.Now())
		d.counters.TornPrograms++
		return 0, &OpError{Op: "subprogram", Block: l.b, Page: l.pi, Sub: firstSub, Err: ErrPowerLoss, Detail: "torn mid-program"}
	}
	start, end := d.admitWrite(l.ch.bus, l.ch.index, d.xfer[k], d.passCell[k])
	if err := l.ch.programSubpages(l.lb, l.pi, firstSub, stamps, start, d.nextSeq(), tag); err != nil {
		return 0, &OpError{Op: "subprogram", Block: l.b, Page: l.pi, Sub: firstSub, Err: err}
	}
	d.counters.SubPrograms++
	d.counters.BytesWritten += int64(k) * int64(g.SubpageBytes)
	if inj := d.cfg.Fault; inj != nil && inj.ProgramFail(l.ch.index, int(l.b), l.block().ratedWear()) {
		l.ch.failProgram(l.lb, l.pi, firstSub, k)
		d.counters.ProgramFailures++
		return end, &OpError{Op: "subprogram", Block: l.b, Page: l.pi, Sub: firstSub, Err: ErrProgramFail, Detail: "injected"}
	}
	return end, nil
}

// ReadSubpage reads one subpage's stamp, applying the reliability model.
// Without the subpage-read extension the full page is sensed (page read
// latency and full-page transfer); with it, only the subpage's share moves.
func (d *Device) ReadSubpage(s SubpageID) (Stamp, error) {
	g := &d.cfg.Geometry
	if !g.ValidSubpage(s) {
		return Stamp{}, &OpError{Op: "read", Block: -1, Sub: g.SubIndex(s), Err: ErrBadAddress}
	}
	p, sub := d.dec.subs.divmod(int64(s))
	l := d.pageLoc(PageID(p))
	if _, err := d.beginOp(false); err != nil {
		return Stamp{}, &OpError{Op: "read", Block: l.b, Page: l.pi, Sub: sub, Err: err}
	}

	cell, k := tReadPage, g.SubpagesPerPage
	if d.cfg.EnableSubpageRead {
		cell, k = tReadSubpage, 1
	}
	start, _ := d.admitRead(l.ch.index, cell, d.xfer[k])
	d.counters.BytesRead += int64(k) * int64(g.SubpageBytes)
	if d.cfg.EnableSubpageRead {
		d.counters.SubpageReads++
	} else {
		d.counters.PageReads++
	}

	slots, _ := l.slots()
	sp := &slots[sub]
	blk := l.block()
	retention, err := d.senseSlot(l, sp, wearFactor(blk.effWear), shallowFactor(blk.lastDepth), start, cell)
	if err != nil {
		if d.cfg.DisableRetentionErrors && retention && errors.Is(err, ErrUncorrectable) {
			d.counters.RetentionHits++
			// Bookkeeping mode: surface the data anyway.
			return sp.stamp(), nil
		}
		d.counters.ReadFailures++
		if retention && errors.Is(err, ErrUncorrectable) {
			d.counters.RetentionHits++
		}
		return Stamp{}, &OpError{Op: "read", Block: l.b, Page: l.pi, Sub: sub, Err: err}
	}
	return sp.stamp(), nil
}

// senseSlot applies the reliability model to slot sp of the page at l,
// sensed at start on a block whose wear and shallow-erase BER factors are
// wf and sf. The slot-state sentinels come back bare. retention reports
// whether the retention model by itself puts the slot past the ECC limit
// (as opposed to an injected disturb) — the distinction
// DisableRetentionErrors bookkeeping needs.
//
// With Fault nil and Retry off the decision is the retention model's
// alone; otherwise the slot goes through injected read disturbs and
// stepped read-retry (senseRetry).
func (d *Device) senseSlot(l loc, sp *subpage, wf, sf float64, start sim.Time, stepCost sim.Duration) (retention bool, err error) {
	if err := sp.unreadable(); err != nil {
		return false, err
	}
	// NormalizedBER's expression, in its operand order.
	ber := ageBER(sp.npp, AgeOf(sp.programmedAt, start)) * wf * sf
	retention = ber > model.NormalizedECCLimit
	if d.cfg.Fault == nil && !d.cfg.Retry {
		if retention {
			return true, ErrUncorrectable
		}
		return false, nil
	}
	return retention, d.senseRetry(l, ber, start, stepCost)
}

// senseRetry finishes a slot's sense on the recovery path: it adds the
// injected read disturb to the retention BER and, with Retry on, re-senses
// in steps charged to the chip timeline at one stepCost each.
func (d *Device) senseRetry(l loc, ber float64, start sim.Time, stepCost sim.Duration) error {
	limit := model.NormalizedECCLimit
	if inj := d.cfg.Fault; inj != nil {
		ber += inj.ReadDisturb(l.ch.index, int(l.b), l.block().ratedWear())
	}
	if ber <= limit {
		d.retryHist.Record(0)
		return nil
	}
	// Stepped read-retry: re-sense with shifted read reference voltages
	// until the effective BER decodes or the budget runs out. Each step
	// occupies the chip for one more cell sense.
	steps := 0
	if d.cfg.Retry {
		eff := ber
		for steps < ecc.MaxRetries && eff > limit {
			steps++
			eff = ecc.RetryBER(ber, steps)
		}
		if steps > 0 {
			d.reserve(l.ch.index, start, stepCost*sim.Duration(steps))
			d.counters.ReadRetries += int64(steps)
		}
		d.retryHist.Record(steps)
		if eff <= limit {
			d.counters.RetriedReads++
			return nil
		}
		d.counters.RetryFailures++
	} else {
		d.retryHist.Record(0)
	}
	return fmt.Errorf("nand: %d read retries exhausted (normalized BER %.2f, limit %.2f): %w", steps, ber, limit, ErrUncorrectable)
}

// ReadPage reads all subpages of a page. Slots that are erased, destroyed
// or expired are returned as padding stamps alongside a nil error only if
// at least the addressing was valid; per-slot failures are reported in the
// errs slice (index-aligned), since an FTL doing a read-modify-write needs
// the readable slots even when others are gone.
//
// The page is sensed in one pass over its slots, in slot order, with the
// block's wear and shallow-erase factors computed once.
//
// Borrow contract: the returned slices are device-owned scratch, valid
// only until the next ReadPage or ScanPageOOB call on this device. A
// caller that issues further device operations while still holding the
// result (or stores it) must copy first. This keeps the steady-state read
// path allocation-free (see TestReadPageAllocs).
func (d *Device) ReadPage(p PageID) ([]Stamp, []error, error) {
	g := &d.cfg.Geometry
	if !g.ValidPage(p) {
		return nil, nil, &OpError{Op: "read", Block: g.BlockOfPage(p), Page: 0, Sub: -1, Err: ErrBadAddress}
	}
	l := d.pageLoc(p)
	if _, err := d.beginOp(false); err != nil {
		return nil, nil, &OpError{Op: "read", Block: l.b, Page: l.pi, Sub: -1, Err: err}
	}
	cell := tReadPage
	start, _ := d.admitRead(l.ch.index, cell, d.xfer[g.SubpagesPerPage])
	d.counters.PageReads++
	d.counters.BytesRead += int64(g.PageBytes())

	slots, _ := l.slots()
	blk := l.block()
	wf, sf := wearFactor(blk.effWear), shallowFactor(blk.lastDepth)
	stamps := d.readStamps[:len(slots)]
	errs := d.readErrs[:len(slots)]
	for sub := range slots {
		sp := &slots[sub]
		retention, err := d.senseSlot(l, sp, wf, sf, start, cell)
		// senseSlot returns the slot-state sentinels bare, so the states a
		// partially-valid page is made of classify by identity.
		switch err {
		case nil:
			stamps[sub], errs[sub] = sp.stamp(), nil
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
					stamps[sub], errs[sub] = sp.stamp(), nil
					continue
				}
			}
			d.counters.ReadFailures++
		}
		stamps[sub] = Padding
		// The error values share the borrow contract of the stamp and
		// error slices: device-owned scratch, reused by the next read. As
		// in subpage.program, every field is stored on its own.
		e := &d.readErrOps[sub]
		e.Op, e.Block, e.Page, e.Sub, e.Err, e.Detail = "read", l.b, l.pi, sub, err, ""
		errs[sub] = e
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
	g := &d.cfg.Geometry
	if !g.ValidPage(p) {
		return nil, &OpError{Op: "oobscan", Block: g.BlockOfPage(p), Page: 0, Sub: -1, Err: ErrBadAddress}
	}
	l := d.pageLoc(p)
	if _, err := d.beginOp(false); err != nil {
		return nil, &OpError{Op: "oobscan", Block: l.b, Page: l.pi, Sub: -1, Err: err}
	}
	d.reserve(l.ch.index, d.clock.Now(), tReadPage)
	d.counters.OOBScans++
	return l.ch.pageOOB(l.lb, l.pi, d.oobBuf[:g.SubpagesPerPage]), nil
}

// EraseCount returns the wear (erase cycles) of block b.
func (d *Device) EraseCount(b BlockID) int { return d.wear(b).eraseCount }

// SetEraseCount force-sets the wear of block b: a hook for end-of-life
// experiments and tests that would otherwise need thousands of simulated
// erase cycles to reach the interesting wear region. Effective wear is
// pinned to the same value, as n full-depth cycles would have left it.
func (d *Device) SetEraseCount(b BlockID, n int) {
	blk := d.wear(b)
	blk.eraseCount = n
	blk.effWear = float64(n)
}

// EffectiveWear returns block b's effective wear in deep-erase
// equivalents: the sum of the depths of every erase it has received. It
// equals float64(EraseCount(b)) on a device that only ever erased deep.
func (d *Device) EffectiveWear(b BlockID) float64 { return d.wear(b).effWear }

// LastEraseDepth returns the depth of block b's most recent erase (zero if
// the block was never erased; the retention model reads that as full
// depth).
func (d *Device) LastEraseDepth(b BlockID) EraseDepth { return d.wear(b).lastDepth }

// PagePasses returns how many program passes page p has received since its
// block's last erase.
func (d *Device) PagePasses(p PageID) int {
	if !d.cfg.Geometry.ValidPage(p) {
		panic(fmt.Sprintf("nand: page %d outside the device", p))
	}
	l := d.pageLoc(p)
	_, passes := l.slots()
	return int(*passes)
}

// SubpageInfo returns a read-only snapshot of device-side subpage state.
// It is an introspection hook for tests and tools, not a data-path API.
func (d *Device) SubpageInfo(s SubpageID) SubpageInfo {
	if !d.cfg.Geometry.ValidSubpage(s) {
		panic(fmt.Sprintf("nand: subpage %d outside the device", s))
	}
	p, sub := d.dec.subs.divmod(int64(s))
	l := d.pageLoc(PageID(p))
	return l.ch.subpageInfo(l.lb, l.pi, sub)
}

// ChipOps returns per-chip operation counts, for load-balance diagnostics.
func (d *Device) ChipOps() []int64 {
	out := make([]int64, len(d.chips))
	for i, tl := range d.tl[:len(d.chips)] {
		out[i] = tl.Ops()
	}
	return out
}

// TotalChipBusy returns the cumulative busy time summed over all chips,
// the numerator of the device-wide utilization time series.
func (d *Device) TotalChipBusy() sim.Duration { return d.chipBusy }

// ChipUtilization returns per-chip busy fractions over the horizon ending
// at DrainTime, for parallelism diagnostics.
func (d *Device) ChipUtilization() []float64 {
	horizon := d.DrainTime()
	out := make([]float64, len(d.chips))
	for i, tl := range d.tl[:len(d.chips)] {
		out[i] = tl.Utilization(horizon)
	}
	return out
}
