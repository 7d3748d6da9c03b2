package nand

import (
	"errors"
	"testing"
	"time"

	"espftl/internal/sim"
)

func TestProgramSubpagesLatencyInterpolation(t *testing.T) {
	// The calibration itself: every latency and the bus rate positive.
	for _, lat := range []time.Duration{tReadPage, tReadSubpage, tProgPage, tProgSubpage, tErase} {
		if lat <= 0 {
			t.Fatalf("latency %v must be positive", lat)
		}
	}
	if busBytesPerSec <= 0 {
		t.Fatalf("bus rate %d must be positive", busBytesPerSec)
	}
	if got := programTime(1, 4); got != tProgSubpage {
		t.Fatalf("k=1: %v, want %v", got, tProgSubpage)
	}
	if got := programTime(4, 4); got != tProgPage {
		t.Fatalf("k=4: %v, want %v", got, tProgPage)
	}
	k2 := programTime(2, 4)
	k3 := programTime(3, 4)
	if !(tProgSubpage < k2 && k2 < k3 && k3 < tProgPage) {
		t.Fatalf("interpolation not monotone: %v %v", k2, k3)
	}
	// Exact linear points for the default 1300/1600 µs pair.
	if k2 != 1400*time.Microsecond || k3 != 1500*time.Microsecond {
		t.Fatalf("k2=%v k3=%v, want 1.4ms/1.5ms", k2, k3)
	}
	// Degenerate geometries clamp sanely.
	if got := programTime(0, 4); got != tProgSubpage {
		t.Fatalf("k=0: %v", got)
	}
	if got := programTime(9, 4); got != tProgPage {
		t.Fatalf("k>nsub: %v", got)
	}
}

// A multi-subpage pass stores several live subpages in one page with the
// same Npp type, and a later pass destroys all of them.
func TestProgramSubpageRunSemantics(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	stamps := []Stamp{{LSN: 10, Version: 1}, {LSN: 11, Version: 1}}
	if _, err := d.ProgramSubpageRun(p, 0, stamps); err != nil {
		t.Fatal(err)
	}
	if got := d.PagePasses(p); got != 1 {
		t.Fatalf("PagePasses = %d, want 1 (one pass)", got)
	}
	for i := 0; i < 2; i++ {
		st, err := d.ReadSubpage(g.SubpageOf(p, i))
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if st != stamps[i] {
			t.Fatalf("slot %d stamp = %v", i, st)
		}
		if info := d.SubpageInfo(g.SubpageOf(p, i)); info.Npp != 0 {
			t.Fatalf("slot %d type = %v, want N0pp", i, info.Npp)
		}
	}
	// Second pass on the remaining slots destroys both earlier subpages
	// and carries N1pp type.
	if _, err := d.ProgramSubpageRun(p, 2, []Stamp{{LSN: 12, Version: 1}, {LSN: 13, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.ReadSubpage(g.SubpageOf(p, i)); !errors.Is(err, ErrDestroyed) {
			t.Fatalf("slot %d err = %v, want ErrDestroyed", i, err)
		}
	}
	for i := 2; i < 4; i++ {
		st, err := d.ReadSubpage(g.SubpageOf(p, i))
		if err != nil || st.LSN != int64(10+i) {
			t.Fatalf("slot %d: %v %v", i, st, err)
		}
		if info := d.SubpageInfo(g.SubpageOf(p, i)); info.Npp != 1 {
			t.Fatalf("slot %d type = %v, want N1pp", i, info.Npp)
		}
	}
	if got := d.PagePasses(p); got != 2 {
		t.Fatalf("PagePasses = %d, want 2", got)
	}
}

func TestProgramSubpageRunRejectsOverlap(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(1, 0)
	if _, err := d.ProgramSubpageRun(p, 1, []Stamp{{LSN: 1}, {LSN: 2}}); err != nil {
		t.Fatal(err)
	}
	// Overlapping the programmed slot 2 is a reprogram violation.
	if _, err := d.ProgramSubpageRun(p, 2, []Stamp{{LSN: 3}}); !errors.Is(err, ErrReprogram) {
		t.Fatalf("err = %v, want ErrReprogram", err)
	}
	// Out-of-range runs are rejected before touching state.
	if _, err := d.ProgramSubpageRun(p, 3, []Stamp{{LSN: 4}, {LSN: 5}}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
	if _, err := d.ProgramSubpageRun(p, 0, nil); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("empty run err = %v, want ErrBadAddress", err)
	}
}

func TestProgramSubpageRunTiming(t *testing.T) {
	mk := func() *Device {
		cfg := DefaultConfig()
		cfg.Geometry = tinyGeometry()
		d, err := NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	one, two := mk(), mk()
	g := one.Geometry()
	if _, err := one.ProgramSubpage(g.PageOf(0, 0), 0, Stamp{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := two.ProgramSubpageRun(g.PageOf(0, 0), 0, []Stamp{{LSN: 1}, {LSN: 2}}); err != nil {
		t.Fatal(err)
	}
	if !(one.DrainTime() < two.DrainTime()) {
		t.Fatalf("2-subpage pass (%v) not slower than 1-subpage (%v)", two.DrainTime(), one.DrainTime())
	}
	// But far cheaper than two separate passes.
	sep := mk()
	if _, err := sep.ProgramSubpage(g.PageOf(0, 0), 0, Stamp{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sep.ProgramSubpage(g.PageOf(1, 0), 0, Stamp{LSN: 2}); err != nil {
		t.Fatal(err)
	}
	// Same chip would serialize; block 1 is another chip, so compare raw
	// chip time via counters instead: the run writes the same bytes with
	// one op.
	if two.Counters().SubPrograms != 1 || sep.Counters().SubPrograms != 2 {
		t.Fatalf("op counts: run=%d sep=%d", two.Counters().SubPrograms, sep.Counters().SubPrograms)
	}
	if two.Counters().BytesWritten != sep.Counters().BytesWritten {
		t.Fatalf("bytes differ: %d vs %d", two.Counters().BytesWritten, sep.Counters().BytesWritten)
	}
}

// Mixed full-page and ESP pass interplay: a full-page program counts as
// one pass, so a later ESP attempt on the same page must fail.
func TestFullProgramBlocksLaterRun(t *testing.T) {
	d := tinyDevice(t)
	g := d.Geometry()
	p := g.PageOf(2, 0)
	if _, err := d.ProgramPage(p, []Stamp{{LSN: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramSubpageRun(p, 0, []Stamp{{LSN: 2}}); !errors.Is(err, ErrReprogram) {
		t.Fatalf("err = %v, want ErrReprogram", err)
	}
}
