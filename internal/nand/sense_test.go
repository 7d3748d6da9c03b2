package nand

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"espftl/internal/ecc"
	"espftl/internal/fault"
	"espftl/internal/sim"
)

// The device decodes each address once and senses a page in one pass over
// its slots. What it replaced is kept here as the reference: a per-slot
// sense that decodes through Geometry's helpers and decides through
// Correctable / NormalizedBER, as ReadPage and
// ReadSubpage did before.

// refReadSlot is the chip-level read of one slot: erased, torn and
// destroyed slots are unreadable, and data past its retention capability
// on this block fails uncorrectable.
func refReadSlot(c *chip, lb, pi, sub int, now sim.Time) (Stamp, error) {
	blk := &c.blocks[lb]
	slots, _ := c.page(lb, pi)
	sp := &slots[sub]
	if err := sp.unreadable(); err != nil {
		return Stamp{}, err
	}
	if !Correctable(sp.npp, AgeOf(sp.programmedAt, now), blk.effWear, blk.lastDepth) {
		return Stamp{}, ErrUncorrectable
	}
	return sp.stamp(), nil
}

// refSenseSubpage is one slot's sense with injected disturbs and stepped
// read-retry, re-deriving the block's location for every slot.
func refSenseSubpage(d *Device, b BlockID, p PageID, sub int, start sim.Time, stepCost sim.Duration) (Stamp, bool, error) {
	g := d.cfg.Geometry
	ch, chipRes := d.chips[g.ChipOf(b)], g.ChipOf(b)
	lb, pi := g.LocalBlock(b), g.PageIndex(p)
	if d.cfg.Fault == nil && !d.cfg.Retry {
		st, err := refReadSlot(ch, lb, pi, sub, start)
		return st, true, err
	}
	blk := &ch.blocks[lb]
	slots, _ := ch.page(lb, pi)
	sp := &slots[sub]
	if err := sp.unreadable(); err != nil {
		return Stamp{}, false, err
	}
	limit := model.NormalizedECCLimit
	ber := NormalizedBER(sp.npp, AgeOf(sp.programmedAt, start), blk.effWear, blk.lastDepth)
	retention := ber > limit
	if inj := d.cfg.Fault; inj != nil {
		ber += inj.ReadDisturb(g.ChipOf(b), int(b), float64(blk.eraseCount)/RatedPE)
	}
	if ber <= limit {
		d.retryHist.Record(0)
		return sp.stamp(), retention, nil
	}
	steps := 0
	if d.cfg.Retry {
		eff := ber
		for steps < ecc.MaxRetries && eff > limit {
			steps++
			eff = ecc.RetryBER(ber, steps)
		}
		if steps > 0 {
			d.reserve(chipRes, start, stepCost*sim.Duration(steps))
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

// refReadPage is ReadPage as a loop of per-slot senses.
func refReadPage(d *Device, p PageID) ([]Stamp, []error, error) {
	g := d.cfg.Geometry
	if !g.ValidPage(p) {
		return nil, nil, &OpError{Op: "read", Block: g.BlockOfPage(p), Page: 0, Sub: -1, Err: ErrBadAddress}
	}
	b := g.BlockOfPage(p)
	if _, err := d.beginOp(false); err != nil {
		return nil, nil, &OpError{Op: "read", Block: b, Page: g.PageIndex(p), Sub: -1, Err: err}
	}
	start, _ := d.admitRead(g.ChipOf(b), tReadPage, transferTime(g.PageBytes()))
	d.counters.PageReads++
	d.counters.BytesRead += int64(g.PageBytes())
	stamps := make([]Stamp, g.SubpagesPerPage)
	errs := make([]error, g.SubpagesPerPage)
	for sub := range stamps {
		st, retention, err := refSenseSubpage(d, b, p, sub, start, tReadPage)
		switch err {
		case nil:
			stamps[sub] = st
			continue
		case ErrNotProgrammed, ErrDestroyed:
		default:
			if retention && errors.Is(err, ErrUncorrectable) {
				d.counters.RetentionHits++
				if d.cfg.DisableRetentionErrors {
					stamps[sub] = d.chips[g.ChipOf(b)].subpageInfo(g.LocalBlock(b), g.PageIndex(p), sub).Stamp
					continue
				}
			}
			d.counters.ReadFailures++
		}
		stamps[sub] = Padding
		errs[sub] = &OpError{Op: "read", Block: b, Page: g.PageIndex(p), Sub: sub, Err: err}
	}
	return stamps, errs, nil
}

// refReadSubpage is ReadSubpage over the per-slot sense.
func refReadSubpage(d *Device, s SubpageID) (Stamp, error) {
	g := d.cfg.Geometry
	if !g.ValidSubpage(s) {
		return Stamp{}, &OpError{Op: "read", Block: -1, Sub: g.SubIndex(s), Err: ErrBadAddress}
	}
	p, sub := g.PageOfSubpage(s), g.SubIndex(s)
	b := g.BlockOfPage(p)
	if _, err := d.beginOp(false); err != nil {
		return Stamp{}, &OpError{Op: "read", Block: b, Page: g.PageIndex(p), Sub: sub, Err: err}
	}
	cell, bytes := tReadPage, g.PageBytes()
	if d.cfg.EnableSubpageRead {
		cell, bytes = tReadSubpage, g.SubpageBytes
	}
	start, _ := d.admitRead(g.ChipOf(b), cell, transferTime(bytes))
	d.counters.BytesRead += int64(bytes)
	if d.cfg.EnableSubpageRead {
		d.counters.SubpageReads++
	} else {
		d.counters.PageReads++
	}
	stamp, retention, err := refSenseSubpage(d, b, p, sub, start, cell)
	if err != nil {
		if d.cfg.DisableRetentionErrors && retention && errors.Is(err, ErrUncorrectable) {
			d.counters.RetentionHits++
			return d.chips[g.ChipOf(b)].subpageInfo(g.LocalBlock(b), g.PageIndex(p), sub).Stamp, nil
		}
		d.counters.ReadFailures++
		if retention && errors.Is(err, ErrUncorrectable) {
			d.counters.RetentionHits++
		}
		return Stamp{}, &OpError{Op: "read", Block: b, Page: g.PageIndex(p), Sub: sub, Err: err}
	}
	return stamp, nil
}

// sameErr reports whether two device errors match: both nil, or both
// *OpError equal field for field, with the same sentinel — identical, or
// the read-retry wrapper with the same message around the same sentinel.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ea, eb *OpError
	if !errors.As(a, &ea) || !errors.As(b, &eb) {
		return false
	}
	if ea.Op != eb.Op || ea.Block != eb.Block || ea.Page != eb.Page || ea.Sub != eb.Sub || ea.Detail != eb.Detail {
		return false
	}
	if ea.Err == eb.Err {
		return true
	}
	return ea.Err.Error() == eb.Err.Error() && errors.Unwrap(ea.Err) != nil && errors.Unwrap(ea.Err) == errors.Unwrap(eb.Err)
}

// senseTwin drives two devices built from one configuration through the
// same random cell states, then reads one through ReadPage/ReadSubpage and
// the other through the references.
type senseTwin struct {
	t    *testing.T
	rng  *rand.Rand
	dut  *Device // the device under test
	ref  *Device
	geo  Geometry
	name string
}

func newSenseTwin(t *testing.T, geo Geometry, noRetention, faults bool, seed int64) *senseTwin {
	build := func() *Device {
		cfg := DefaultConfig()
		cfg.Geometry = geo
		cfg.DisableRetentionErrors = noRetention
		if faults {
			prof := fault.DefaultProfile(uint64(seed))
			prof.ReadDisturbProb, prof.ProgramFailProb, prof.EraseFailProb, prof.FactoryBadFrac = 0.2, 0.02, 0.02, 0
			inj, err := fault.NewInjector(prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fault, cfg.Retry = inj, true
		}
		d, err := NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return &senseTwin{t: t, rng: rand.New(rand.NewSource(seed)), dut: build(), ref: build(), geo: geo,
		name: fmt.Sprintf("%v noRetention=%v faults=%v", geo, noRetention, faults)}
}

// both applies one operation to each device and requires equal results.
func (w *senseTwin) both(what string, op func(d *Device) (sim.Time, error)) {
	w.t.Helper()
	ta, ea := op(w.dut)
	tb, eb := op(w.ref)
	if ta != tb || !sameErr(ea, eb) {
		w.t.Fatalf("%s: %s diverged: (%v, %v) vs (%v, %v)", w.name, what, ta, ea, tb, eb)
	}
}

// freeRun returns a run of unprogrammed slots of page p, empty if none.
func (w *senseTwin) freeRun(p PageID) (first, n int) {
	g := w.geo
	var free []int
	for sub := 0; sub < g.SubpagesPerPage; sub++ {
		if !w.ref.SubpageInfo(g.SubpageOf(p, sub)).Programmed {
			free = append(free, sub)
		}
	}
	if len(free) == 0 {
		return 0, 0
	}
	first = free[w.rng.Intn(len(free))]
	for n = 1; first+n < g.SubpagesPerPage && !w.ref.SubpageInfo(g.SubpageOf(p, first+n)).Programmed && w.rng.Intn(2) == 0; n++ {
	}
	return first, n
}

var senseDepths = []EraseDepth{DepthFull, 0.875, 0.5, MinEraseDepth}

func (w *senseTwin) step() {
	g, rng := w.geo, w.rng
	b := BlockID(rng.Intn(g.TotalBlocks()))
	p := g.PageOf(b, rng.Intn(g.PagesPerBlock))
	stamps := make([]Stamp, g.SubpagesPerPage)
	for i := range stamps {
		stamps[i] = Stamp{LSN: int64(rng.Intn(1 << 20)), Version: uint32(rng.Intn(9))}
	}
	switch r := rng.Intn(100); {
	case r < 12:
		if w.ref.PagePasses(p) == 0 {
			w.both("program", func(d *Device) (sim.Time, error) { return d.ProgramPage(p, stamps) })
		}
	case r < 40:
		// ESP passes: the k-th pass on a page writes N^k_pp slots.
		if first, n := w.freeRun(p); n > 0 {
			w.both("subprogram", func(d *Device) (sim.Time, error) { return d.ProgramSubpageRun(p, first, stamps[:n]) })
		}
	case r < 44:
		// A program cut by power loss tears its slots.
		if first, n := w.freeRun(p); n > 0 {
			for _, d := range []*Device{w.dut, w.ref} {
				d.chips[g.ChipOf(b)].tornProgram(g.LocalBlock(b), g.PageIndex(p), first, n, d.clock.Now())
			}
		}
	case r < 47:
		// An aborted program leaves its slots unreadable.
		sub := rng.Intn(g.SubpagesPerPage)
		for _, d := range []*Device{w.dut, w.ref} {
			d.chips[g.ChipOf(b)].failProgram(g.LocalBlock(b), g.PageIndex(p), sub, 1)
		}
	case r < 52:
		depth := senseDepths[rng.Intn(len(senseDepths))]
		w.both("erase", func(d *Device) (sim.Time, error) { return d.EraseAt(b, depth) })
	case r < 56:
		n := rng.Intn(RatedPE + 1)
		w.dut.SetEraseCount(b, n)
		w.ref.SetEraseCount(b, n)
	case r < 60:
		// Ages around the N³pp (1-2 months) and N⁰pp (12+ months)
		// retention capabilities.
		jump := []sim.Duration{Month / 8, Month, 2 * Month, 6 * Month, 13 * Month}[rng.Intn(5)]
		w.dut.Clock().Advance(jump)
		w.ref.Clock().Advance(jump)
	case r < 62 && w.dut.Injector() != nil:
		// Power cut at one of the next few operations, torn if a program.
		at := w.ref.OpCount() + int64(rng.Intn(4))
		w.dut.Injector().ArmSPO(at, true)
		w.ref.Injector().ArmSPO(at, true)
	case r < 80:
		s := g.SubpageOf(p, rng.Intn(g.SubpagesPerPage))
		sa, ea := w.dut.ReadSubpage(s)
		sb, eb := refReadSubpage(w.ref, s)
		if sa != sb || !sameErr(ea, eb) {
			w.t.Fatalf("%s: ReadSubpage(%d) = %v, %v; reference %v, %v", w.name, s, sa, ea, sb, eb)
		}
	default:
		sa, errsA, ea := w.dut.ReadPage(p)
		sb, errsB, eb := refReadPage(w.ref, p)
		if !sameErr(ea, eb) || len(sa) != len(sb) || len(errsA) != len(errsB) {
			w.t.Fatalf("%s: ReadPage(%d) = %v, %v; reference %v, %v", w.name, p, sa, ea, sb, eb)
		}
		for i := range sa {
			if sa[i] != sb[i] || !sameErr(errsA[i], errsB[i]) {
				w.t.Fatalf("%s: ReadPage(%d) slot %d = %v, %v; reference %v, %v", w.name, p, i, sa[i], errsA[i], sb[i], errsB[i])
			}
		}
	}
	if !w.ref.Alive() {
		w.dut.PowerOn()
		w.ref.PowerOn()
	}
	if a, b := w.dut.Counters(), w.ref.Counters(); a != b {
		w.t.Fatalf("%s: counters diverged:\n%+v\n%+v", w.name, a, b)
	}
	if a, b := w.dut.DrainTime(), w.ref.DrainTime(); a != b {
		w.t.Fatalf("%s: DrainTime %v, reference %v", w.name, a, b)
	}
	if !reflect.DeepEqual(w.dut.RetryHistogram(), w.ref.RetryHistogram()) {
		w.t.Fatalf("%s: retry histogram %v, reference %v", w.name, w.dut.RetryHistogram(), w.ref.RetryHistogram())
	}
}

// ReadPage and ReadSubpage match the per-slot reference on every cell
// state a slot can reach — erased, full-page and ESP N⁰pp-N³pp (and the
// clamped N⁴pp+ of an 8-slot page), destroyed, torn and failed — on
// shallow erases, wear up to the rating and ages past the N³pp and N⁰pp
// capabilities, with retention errors on and off and with fault injection
// and read-retry on and off.
func TestPageSenseMatchesSlotReads(t *testing.T) {
	geos := []Geometry{
		tinyGeometry(),
		{Channels: 3, ChipsPerChannel: 3, BlocksPerChip: 2, PagesPerBlock: 3, SubpagesPerPage: 8, SubpageBytes: 2048},
	}
	steps := 6000
	if testing.Short() {
		steps = 2000
	}
	seed := int64(0)
	for _, geo := range geos {
		for _, noRetention := range []bool{false, true} {
			for _, faults := range []bool{false, true} {
				seed++
				w := newSenseTwin(t, geo, noRetention, faults, seed)
				for i := 0; i < steps; i++ {
					w.step()
				}
				c := w.ref.Counters()
				if c.RetentionHits == 0 || c.ShallowErases == 0 || c.PageReads == 0 {
					t.Errorf("%s: the mix missed retention expiry or shallow erases: %+v", w.name, c)
				}
				if faults && (c.ReadRetries == 0 || c.RetryFailures == 0 || c.TornPrograms == 0 || c.ProgramFailures == 0) {
					t.Errorf("%s: the mix missed a recovery path: %+v", w.name, c)
				}
			}
		}
	}
}

// decodeGeometries are the geometries the tests run the device on: the
// default, cellstate_test's odd one and journal_test's 3×3.
var decodeGeometries = []Geometry{
	DefaultGeometry,
	oddGeometry,
	{Channels: 3, ChipsPerChannel: 3, BlocksPerChip: 6, PagesPerBlock: 4, SubpagesPerPage: 8, SubpageBytes: 2048},
}

// The location every entry point decodes equals Geometry's division-based
// helpers for every block, page and subpage.
func TestDecodeMatchesGeometry(t *testing.T) {
	for _, g := range decodeGeometries {
		d, err := NewDevice(Config{Geometry: g}, sim.NewClock(0))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range d.chips {
			// Chip i owns blocks i, i+Chips, ...: block i names its channel.
			if c.index != i || c.bus != g.Chips()+g.ChannelOf(BlockID(i)) {
				t.Fatalf("%v: chip %d has timeline %d and bus %d", g, i, c.index, c.bus)
			}
		}
		check := func(what string, l loc, b BlockID, pi int) {
			t.Helper()
			want := loc{ch: d.chips[g.ChipOf(b)], b: b, lb: g.LocalBlock(b), pi: pi}
			if l != want || l.ch.index != g.ChipOf(b) || l.ch.bus != g.Chips()+g.ChannelOf(b) {
				t.Fatalf("%v: %s decodes to %+v (chip %d, bus %d), want %+v", g, what, l, l.ch.index, l.ch.bus, want)
			}
		}
		for b := BlockID(0); int(b) < g.TotalBlocks(); b++ {
			check(fmt.Sprintf("block %d", b), d.blockLoc(b), b, 0)
		}
		for p := PageID(0); int64(p) < g.TotalPages(); p++ {
			check(fmt.Sprintf("page %d", p), d.pageLoc(p), g.BlockOfPage(p), g.PageIndex(p))
			if b, pi := d.BlockOfPage(p); b != g.BlockOfPage(p) || pi != g.PageIndex(p) {
				t.Fatalf("%v: BlockOfPage(%d) = (%d, %d)", g, p, b, pi)
			}
		}
		for s := int64(0); s < g.TotalSubpages(); s++ {
			if p, sub := d.dec.subs.divmod(s); PageID(p) != g.PageOfSubpage(SubpageID(s)) || sub != g.SubIndex(SubpageID(s)) {
				t.Fatalf("%v: subpage %d decodes to (%d, %d)", g, s, p, sub)
			}
			p := g.PageOfSubpage(SubpageID(s))
			wantOff := g.PageIndex(p)*g.SubpagesPerPage + g.SubIndex(SubpageID(s))
			if b, off := d.BlockOfSubpage(SubpageID(s)); b != g.BlockOfPage(p) || off != wantOff {
				t.Fatalf("%v: BlockOfSubpage(%d) = (%d, %d), want (%d, %d)", g, s, b, off, g.BlockOfPage(p), wantOff)
			}
		}
	}
}

// The reciprocal divisor agrees with integer division up to the address
// bound, for every divisor a geometry can have.
func TestDivisorMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []int64{0, 1, 2, maxAddress - 2, maxAddress - 1}
	for d := 1; d <= 4096; d++ {
		v := newDivisor(d)
		for i := 0; i < 64; i++ {
			x := rng.Int63n(maxAddress)
			if i < len(edges) {
				x = edges[i]
			}
			if q, r := v.divmod(x); int64(q) != x/int64(d) || int64(r) != x%int64(d) {
				t.Fatalf("divmod(%d, %d) = (%d, %d), want (%d, %d)", x, d, q, r, x/int64(d), x%int64(d))
			}
		}
	}
	for i := 0; i < 100000; i++ {
		d, x := 1+rng.Int63n(maxAddress-1), rng.Int63n(maxAddress)
		if q, r := newDivisor(int(d)).divmod(x); int64(q) != x/d || int64(r) != x%d {
			t.Fatalf("divmod(%d, %d) = (%d, %d), want (%d, %d)", x, d, q, r, x/d, x%d)
		}
	}
}
