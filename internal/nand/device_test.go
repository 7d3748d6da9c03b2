package nand

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"espftl/internal/sim"
)

func tinyDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Geometry = tinyGeometry()
	d, err := NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry.Channels = 0
	if _, err := NewDevice(cfg, nil); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestNewDeviceNilClock(t *testing.T) {
	d, err := NewDevice(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Clock() == nil {
		t.Fatal("device did not create a clock")
	}
}

func TestFullPageProgramAndRead(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	stamps := []Stamp{{LSN: 10, Version: 1}, {LSN: 11, Version: 1}, {LSN: 12, Version: 1}, {LSN: 13, Version: 1}}
	if _, err := d.ProgramPage(p, stamps); err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	for sub := 0; sub < g.SubpagesPerPage; sub++ {
		st, err := d.ReadSubpage(g.SubpageOf(p, sub))
		if err != nil {
			t.Fatalf("ReadSubpage(%d): %v", sub, err)
		}
		if st != stamps[sub] {
			t.Fatalf("sub %d stamp = %v, want %v", sub, st, stamps[sub])
		}
		if info := d.SubpageInfo(g.SubpageOf(p, sub)); info.Npp != 0 {
			t.Fatalf("full-page program produced %v, want N0pp", info.Npp)
		}
	}
	if got := d.PagePasses(p); got != 1 {
		t.Fatalf("PagePasses = %d, want 1", got)
	}
}

func TestFullPageProgramPadsShortStamps(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(1, 0)
	if _, err := d.ProgramPage(p, []Stamp{{LSN: 5, Version: 2}}); err != nil {
		t.Fatal(err)
	}
	st, err := d.ReadSubpage(g.SubpageOf(p, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsPadding() {
		t.Fatalf("unfilled slot = %v, want padding", st)
	}
}

func TestReprogramFullPageRejected(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(0, 1)
	if _, err := d.ProgramPage(p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramPage(p, nil); !errors.Is(err, ErrReprogram) {
		t.Fatalf("second full program err = %v, want ErrReprogram", err)
	}
	// Subpage program onto a fully programmed page must also fail.
	if _, err := d.ProgramSubpage(p, 0, Stamp{LSN: 1}); !errors.Is(err, ErrReprogram) {
		t.Fatalf("subprogram on full page err = %v, want ErrReprogram", err)
	}
}

// The heart of ESP (paper Fig. 4): programming subpage 2 after subpage 1
// destroys subpage 1's data, while subpage 2 (inhibited during pass 1) is
// readable with a reduced retention capability.
func TestESPDestroysPreviousSubpages(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(2, 0)

	if _, err := d.ProgramSubpage(p, 0, Stamp{LSN: 100, Version: 1}); err != nil {
		t.Fatalf("pass 1: %v", err)
	}
	// sp1 readable after pass 1, N0pp type.
	st, err := d.ReadSubpage(g.SubpageOf(p, 0))
	if err != nil || st.LSN != 100 {
		t.Fatalf("sp0 after pass1: %v %v", st, err)
	}
	if info := d.SubpageInfo(g.SubpageOf(p, 0)); info.Npp != 0 {
		t.Fatalf("sp0 type = %v, want N0pp", info.Npp)
	}

	if _, err := d.ProgramSubpage(p, 1, Stamp{LSN: 200, Version: 1}); err != nil {
		t.Fatalf("pass 2: %v", err)
	}
	// sp0 destroyed.
	if _, err := d.ReadSubpage(g.SubpageOf(p, 0)); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("sp0 after pass2 err = %v, want ErrDestroyed", err)
	}
	// sp1 readable, N1pp type.
	st, err = d.ReadSubpage(g.SubpageOf(p, 1))
	if err != nil || st.LSN != 200 {
		t.Fatalf("sp1 after pass2: %v %v", st, err)
	}
	if info := d.SubpageInfo(g.SubpageOf(p, 1)); info.Npp != 1 {
		t.Fatalf("sp1 type = %v, want N1pp", info.Npp)
	}
	if got := d.PagePasses(p); got != 2 {
		t.Fatalf("PagePasses = %d, want 2", got)
	}
}

func TestESPFourPassesTypes(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(3, 0)
	for pass := 0; pass < g.SubpagesPerPage; pass++ {
		if _, err := d.ProgramSubpage(p, pass, Stamp{LSN: int64(pass), Version: 1}); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if info := d.SubpageInfo(g.SubpageOf(p, pass)); int(info.Npp) != pass {
			t.Fatalf("pass %d type = %v, want N%dpp", pass, info.Npp, pass)
		}
	}
	// Only the last survives.
	for sub := 0; sub < g.SubpagesPerPage-1; sub++ {
		if _, err := d.ReadSubpage(g.SubpageOf(p, sub)); !errors.Is(err, ErrDestroyed) {
			t.Fatalf("sub %d err = %v, want ErrDestroyed", sub, err)
		}
	}
	if st, err := d.ReadSubpage(g.SubpageOf(p, 3)); err != nil || st.LSN != 3 {
		t.Fatalf("last subpage: %v %v", st, err)
	}
	// A fifth program has no free slot anywhere.
	if _, err := d.ProgramSubpage(p, 2, Stamp{LSN: 9}); !errors.Is(err, ErrReprogram) {
		t.Fatalf("reprogram err = %v, want ErrReprogram", err)
	}
}

func TestEraseResetsPage(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	b := BlockID(0)
	p := g.PageOf(b, 0)
	if _, err := d.ProgramSubpage(p, 0, Stamp{LSN: 7, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(b); err != nil {
		t.Fatal(err)
	}
	if got := d.EraseCount(b); got != 1 {
		t.Fatalf("EraseCount = %d, want 1", got)
	}
	if _, err := d.ReadSubpage(g.SubpageOf(p, 0)); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("read after erase err = %v, want ErrNotProgrammed", err)
	}
	// Reusable after erase.
	if _, err := d.ProgramPage(p, []Stamp{{LSN: 8, Version: 1}}); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestRetentionExpiryOnRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = tinyGeometry()
	clock := sim.NewClock(0)
	d, err := NewDevice(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	p := g.PageOf(0, 0)
	// Make an N1pp subpage: two ESP passes.
	if _, err := d.ProgramSubpage(p, 0, Stamp{LSN: 1, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSubpage(p, 1, Stamp{LSN: 2, Version: 1}); err != nil {
		t.Fatal(err)
	}
	// Fresh block (0 erase cycles): generous margin, survives 2 months...
	clock.Advance(2 * Month)
	if _, err := d.ReadSubpage(g.SubpageOf(p, 1)); err != nil {
		t.Fatalf("fresh-block N1pp at 2 months: %v", err)
	}
	// ...but not 6 months.
	clock.Advance(4 * Month)
	if _, err := d.ReadSubpage(g.SubpageOf(p, 1)); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expired read err = %v, want ErrUncorrectable", err)
	}
	if d.Counters().RetentionHits == 0 {
		t.Error("retention hit not counted")
	}
}

func TestRetentionExpiryAtRatedWear(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = tinyGeometry()
	clock := sim.NewClock(0)
	d, err := NewDevice(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	b := BlockID(0)
	// Wear the block to its rating.
	for i := 0; i < RatedPE; i++ {
		if _, err := d.Erase(b); err != nil {
			t.Fatal(err)
		}
	}
	p := g.PageOf(b, 0)
	if _, err := d.ProgramSubpage(p, 0, Stamp{LSN: 1, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSubpage(p, 1, Stamp{LSN: 2, Version: 1}); err != nil {
		t.Fatal(err)
	}
	// The paper's conservative model: OK at 1 month, gone at 2.
	clock.Advance(Month)
	if _, err := d.ReadSubpage(g.SubpageOf(p, 1)); err != nil {
		t.Fatalf("N1pp at rated wear, 1 month: %v", err)
	}
	clock.Advance(Month)
	if _, err := d.ReadSubpage(g.SubpageOf(p, 1)); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("N1pp at rated wear, 2 months err = %v, want ErrUncorrectable", err)
	}
}

func TestDisableRetentionErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = tinyGeometry()
	cfg.DisableRetentionErrors = true
	clock := sim.NewClock(0)
	d, err := NewDevice(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	p := g.PageOf(0, 0)
	if _, err := d.ProgramSubpage(p, 0, Stamp{LSN: 1, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSubpage(p, 1, Stamp{LSN: 2, Version: 9}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(24 * Month)
	st, err := d.ReadSubpage(g.SubpageOf(p, 1))
	if err != nil {
		t.Fatalf("bookkeeping mode surfaced error: %v", err)
	}
	if st.LSN != 2 || st.Version != 9 {
		t.Fatalf("bookkeeping read = %v", st)
	}
	if d.Counters().RetentionHits == 0 {
		t.Error("retention hit not recorded in bookkeeping mode")
	}
}

func TestReadPagePartialFailures(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	if _, err := d.ProgramSubpage(p, 0, Stamp{LSN: 1, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSubpage(p, 1, Stamp{LSN: 2, Version: 1}); err != nil {
		t.Fatal(err)
	}
	stamps, errs, err := d.ReadPage(p)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(errs[0], ErrDestroyed) {
		t.Errorf("slot 0 err = %v, want ErrDestroyed", errs[0])
	}
	if errs[1] != nil || stamps[1].LSN != 2 {
		t.Errorf("slot 1 = %v err %v", stamps[1], errs[1])
	}
	if !errors.Is(errs[2], ErrNotProgrammed) || !errors.Is(errs[3], ErrNotProgrammed) {
		t.Errorf("erased slots errs = %v %v, want ErrNotProgrammed", errs[2], errs[3])
	}
}

func TestTimingParallelChipsOverlap(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	// Two programs on different chips (blocks 0 and 1) overlap; drain time
	// is roughly one program, not two.
	if _, err := d.ProgramPage(g.PageOf(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramPage(g.PageOf(1, 0), nil); err != nil {
		t.Fatal(err)
	}
	drain := d.DrainTime()
	one := tProgPage
	if drain > sim.Time(0).Add(one+one/2) {
		t.Fatalf("two-chip drain = %v, want ~%v (parallel)", drain, one)
	}

	// Two programs on the same chip serialize.
	d2 := tinyDevice(t)
	if _, err := d2.ProgramPage(g.PageOf(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.ProgramPage(g.PageOf(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	if d2.DrainTime() < sim.Time(0).Add(2*one) {
		t.Fatalf("same-chip drain = %v, want >= %v", d2.DrainTime(), 2*one)
	}
}

func TestTimingSubpageProgramFaster(t *testing.T) {
	a, b := tinyDevice(t), tinyDevice(t)
	g := a.Geometry()
	if _, err := a.ProgramPage(g.PageOf(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProgramSubpage(g.PageOf(0, 0), 0, Stamp{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	if b.DrainTime() >= a.DrainTime() {
		t.Fatalf("subpage program (%v) not faster than full page (%v)", b.DrainTime(), a.DrainTime())
	}
}

func TestSubpageReadExtensionLatency(t *testing.T) {
	mk := func(enable bool) *Device {
		cfg := DefaultConfig()
		cfg.Geometry = tinyGeometry()
		cfg.EnableSubpageRead = enable
		d, err := NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, slow := mk(true), mk(false)
	g := fast.Geometry()
	for _, d := range []*Device{fast, slow} {
		if _, err := d.ProgramPage(g.PageOf(0, 0), []Stamp{{LSN: 1, Version: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	base := fast.DrainTime()
	if _, err := fast.ReadSubpage(g.SubpageOf(g.PageOf(0, 0), 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.ReadSubpage(g.SubpageOf(g.PageOf(0, 0), 0)); err != nil {
		t.Fatal(err)
	}
	fastCost := fast.DrainTime() - base
	slowCost := slow.DrainTime() - base
	if fastCost >= slowCost {
		t.Fatalf("subpage read cost %v not below full read cost %v", fastCost, slowCost)
	}
	if c := fast.Counters(); c.SubpageReads != 1 || c.PageReads != 0 {
		t.Fatalf("fast counters = %+v, want 1 subpage read", c)
	}
	if c := slow.Counters(); c.PageReads != 1 || c.SubpageReads != 0 {
		t.Fatalf("slow counters = %+v, want 1 page read", c)
	}
}

func TestCountersBytes(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	if _, err := d.ProgramPage(g.PageOf(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSubpage(g.PageOf(1, 0), 0, Stamp{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	c := d.Counters()
	want := int64(g.PageBytes() + g.SubpageBytes)
	if c.BytesWritten != want {
		t.Fatalf("BytesWritten = %d, want %d", c.BytesWritten, want)
	}
	if c.PagePrograms != 1 || c.SubPrograms != 1 {
		t.Fatalf("program counters = %+v", c)
	}
}

func TestBadAddresses(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	if _, err := d.Erase(BlockID(g.TotalBlocks())); !errors.Is(err, ErrBadAddress) {
		t.Errorf("Erase OOB err = %v", err)
	}
	if _, err := d.ProgramPage(PageID(g.TotalPages()), nil); !errors.Is(err, ErrBadAddress) {
		t.Errorf("ProgramPage OOB err = %v", err)
	}
	if _, err := d.ProgramSubpage(g.PageOf(0, 0), g.SubpagesPerPage, Stamp{}); !errors.Is(err, ErrBadAddress) {
		t.Errorf("ProgramSubpage OOB sub err = %v", err)
	}
	if _, err := d.ReadSubpage(SubpageID(g.TotalSubpages())); !errors.Is(err, ErrBadAddress) {
		t.Errorf("ReadSubpage OOB err = %v", err)
	}
	var opErr *OpError
	_, err := d.Erase(-1)
	if !errors.As(err, &opErr) || opErr.Op != "erase" {
		t.Errorf("error type = %T %v", err, err)
	}

	// Field for field, at every entry point, negative and past-the-end
	// IDs: the tiny device has 16 blocks of 8 pages of 4 subpages, and a
	// refused address admits no operation.
	stamp := []Stamp{{LSN: 1}}
	for _, tc := range []struct {
		name string
		op   func() error
		want OpError
	}{
		{"EraseAt(16)", func() error { _, err := d.EraseAt(16, DepthFull); return err }, OpError{Op: "erase", Block: 16, Sub: -1}},
		{"EraseAt(-1)", func() error { _, err := d.EraseAt(-1, 0.5); return err }, OpError{Op: "erase", Block: -1, Sub: -1}},
		{"ProgramPageTag(128)", func() error { _, err := d.ProgramPageTag(128, stamp, 1); return err }, OpError{Op: "program", Block: 16, Sub: -1}},
		{"ProgramPageTag(-1)", func() error { _, err := d.ProgramPageTag(-1, stamp, 1); return err }, OpError{Op: "program", Page: -1, Sub: -1}},
		{"ProgramPageTag(-9)", func() error { _, err := d.ProgramPageTag(-9, stamp, 1); return err }, OpError{Op: "program", Block: -1, Page: -1, Sub: -1}},
		{"ProgramSubpageRunTag(131, 0)", func() error { _, err := d.ProgramSubpageRunTag(131, 0, stamp, 1); return err }, OpError{Op: "subprogram", Block: 16, Page: 3}},
		{"ProgramSubpageRunTag(-1, 0)", func() error { _, err := d.ProgramSubpageRunTag(-1, 0, stamp, 1); return err }, OpError{Op: "subprogram", Page: -1}},
		{"ProgramSubpageRunTag(13, 4)", func() error { _, err := d.ProgramSubpageRunTag(13, 4, stamp, 1); return err }, OpError{Op: "subprogram", Block: 1, Page: 5, Sub: 4}},
		{"ProgramSubpageRunTag(13, -1)", func() error { _, err := d.ProgramSubpageRunTag(13, -1, stamp, 1); return err }, OpError{Op: "subprogram", Block: 1, Page: 5, Sub: -1}},
		{"ProgramSubpageRunTag(13, 3, 2 stamps)", func() error { _, err := d.ProgramSubpageRunTag(13, 3, make([]Stamp, 2), 1); return err }, OpError{Op: "subprogram", Block: 1, Page: 5, Sub: 3}},
		{"ProgramSubpageRunTag(13, 0, no stamps)", func() error { _, err := d.ProgramSubpageRunTag(13, 0, nil, 1); return err }, OpError{Op: "subprogram", Block: 1, Page: 5}},
		{"ReadPage(128)", func() error { _, _, err := d.ReadPage(128); return err }, OpError{Op: "read", Block: 16, Sub: -1}},
		{"ReadPage(-1)", func() error { _, _, err := d.ReadPage(-1); return err }, OpError{Op: "read", Sub: -1}},
		{"ReadSubpage(514)", func() error { _, err := d.ReadSubpage(514); return err }, OpError{Op: "read", Block: -1, Sub: 2}},
		{"ReadSubpage(-1)", func() error { _, err := d.ReadSubpage(-1); return err }, OpError{Op: "read", Block: -1, Sub: -1}},
		{"ScanPageOOB(129)", func() error { _, err := d.ScanPageOOB(129); return err }, OpError{Op: "oobscan", Block: 16, Sub: -1}},
		{"ScanPageOOB(-1)", func() error { _, err := d.ScanPageOOB(-1); return err }, OpError{Op: "oobscan", Sub: -1}},
	} {
		ops := d.OpCount()
		tc.want.Err = ErrBadAddress
		var got *OpError
		if err := tc.op(); !errors.As(err, &got) || *got != tc.want {
			t.Errorf("%s = %#v, want %#v", tc.name, err, &tc.want)
		}
		if d.OpCount() != ops {
			t.Errorf("%s admitted an operation", tc.name)
		}
	}

	// The block and page accessors have no error return: a bad address
	// panics.
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"EraseCount(16)", func() { d.EraseCount(16) }},
		{"EraseCount(-1)", func() { d.EraseCount(-1) }},
		{"SetEraseCount(-1)", func() { d.SetEraseCount(-1, 3) }},
		{"EffectiveWear(16)", func() { d.EffectiveWear(16) }},
		{"LastEraseDepth(-1)", func() { d.LastEraseDepth(-1) }},
		{"PagePasses(128)", func() { d.PagePasses(128) }},
		{"PagePasses(-1)", func() { d.PagePasses(-1) }},
		{"SubpageInfo(512)", func() { d.SubpageInfo(512) }},
		{"SubpageInfo(-1)", func() { d.SubpageInfo(-1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.op()
		}()
	}
}

func TestChipUtilizationBalanced(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	// One program per chip.
	for b := BlockID(0); int(b) < g.Chips(); b++ {
		if _, err := d.ProgramPage(g.PageOf(b, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	utils := d.ChipUtilization()
	if len(utils) != g.Chips() {
		t.Fatalf("got %d utilizations", len(utils))
	}
	for i, u := range utils {
		if u <= 0 || u > 1 {
			t.Fatalf("chip %d utilization %v out of (0,1]", i, u)
		}
	}
}

// Property: under any interleaving of valid ESP passes on one page, at
// most one subpage is readable, and it is always the most recently
// programmed one.
func TestESPSingleSurvivorProperty(t *testing.T) {
	g := tinyGeometry()
	f := func(order []uint8) bool {
		cfg := DefaultConfig()
		cfg.Geometry = g
		d, err := NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			return false
		}
		p := g.PageOf(0, 0)
		programmed := make(map[int]bool)
		last := -1
		for i, raw := range order {
			sub := int(raw) % g.SubpagesPerPage
			_, err := d.ProgramSubpage(p, sub, Stamp{LSN: int64(i), Version: 1})
			if programmed[sub] {
				if !errors.Is(err, ErrReprogram) {
					return false
				}
				continue
			}
			if err != nil {
				return false
			}
			programmed[sub] = true
			last = sub
		}
		readable := 0
		for sub := 0; sub < g.SubpagesPerPage; sub++ {
			if _, err := d.ReadSubpage(g.SubpageOf(p, sub)); err == nil {
				readable++
				if sub != last {
					return false
				}
			}
		}
		return readable <= 1 && (last == -1) == (readable == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: drain time never decreases as operations are issued, and
// always bounds the clock.
func TestDrainMonotoneProperty(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	prev := sim.Time(0)
	pageCursor := make(map[BlockID]int)
	for i := 0; i < 200; i++ {
		b := BlockID(i % g.TotalBlocks())
		pi := pageCursor[b]
		if pi >= g.PagesPerBlock {
			if _, err := d.Erase(b); err != nil {
				t.Fatal(err)
			}
			pageCursor[b] = 0
			pi = 0
		}
		if _, err := d.ProgramPage(g.PageOf(b, pi), nil); err != nil {
			t.Fatal(err)
		}
		pageCursor[b] = pi + 1
		drain := d.DrainTime()
		if drain < prev {
			t.Fatalf("drain time regressed: %v < %v", drain, prev)
		}
		if d.Clock().Now() > drain {
			t.Fatalf("clock %v ahead of drain %v", d.Clock().Now(), drain)
		}
		prev = drain
	}
}

func TestLatencyTransfer(t *testing.T) {
	if got := transferTime(0); got != 0 {
		t.Errorf("Transfer(0) = %v", got)
	}
	// 400 MiB/s: 4096 bytes should take ~9.77 µs.
	got := transferTime(4096)
	if got < 9*time.Microsecond || got > 11*time.Microsecond {
		t.Errorf("Transfer(4096) = %v, want ~9.8µs", got)
	}
}
