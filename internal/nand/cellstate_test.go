package nand

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"espftl/internal/sim"
)

// Cell state is most of a device's memory: one subpage must stay 24 bytes.
func TestSubpageIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(subpage{}); got != 24 {
		t.Fatalf("subpage is %d bytes, want 24", got)
	}
}

// A stamp whose LSN a cell cannot hold is refused before the operation is
// admitted, like a bad address; the bounds themselves program and read
// back exactly.
func TestProgramRefusesLSNOutsideCell(t *testing.T) {
	d, err := NewDevice(DefaultConfig(), sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	for i, lsn := range []int64{-2, maxAddress, math.MaxInt64, math.MinInt64} {
		p := g.PageOf(0, i)
		if _, err := d.ProgramPage(p, []Stamp{{LSN: 1}, {LSN: lsn}}); !errors.Is(err, ErrBadLSN) {
			t.Errorf("ProgramPage with lsn %d: %v, want ErrBadLSN", lsn, err)
		}
		_, err := d.ProgramSubpageRun(p, 1, []Stamp{{LSN: 1}, {LSN: lsn}})
		if !errors.Is(err, ErrBadLSN) {
			t.Errorf("ProgramSubpageRun with lsn %d: %v, want ErrBadLSN", lsn, err)
		}
		var oe *OpError
		if !errors.As(err, &oe) || oe.Block != 0 || oe.Page != i {
			t.Errorf("lsn %d: refusal %v does not locate the page", lsn, err)
		}
	}
	if d.OpCount() != 0 || d.PagePasses(g.PageOf(0, 0)) != 0 {
		t.Fatalf("refused programs admitted %d ops", d.OpCount())
	}
	p := g.PageOf(1, 0)
	if _, err := d.ProgramPage(p, []Stamp{{LSN: maxAddress - 1, Version: math.MaxUint32}, Padding}); err != nil {
		t.Fatal(err)
	}
	for sub, want := range []Stamp{{LSN: maxAddress - 1, Version: math.MaxUint32}, Padding} {
		if got := d.SubpageInfo(g.SubpageOf(p, sub)).Stamp; got != want {
			t.Errorf("slot %d holds %v, want %v", sub, got, want)
		}
	}
}

// The program sequence keeps all 40 of its bits in a cell, and the device
// stops rather than let it wrap.
func TestProgramSequenceBound(t *testing.T) {
	d, err := NewDevice(DefaultConfig(), sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	d.seq = maxSeq - 1
	if _, err := d.ProgramPage(g.PageOf(0, 0), []Stamp{{LSN: 3, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := d.SubpageInfo(g.SubpageOf(g.PageOf(0, 0), 0)).Seq; got != maxSeq {
		t.Fatalf("cell holds seq %#x, want %#x", got, uint64(maxSeq))
	}
	oob, err := d.ScanPageOOB(g.PageOf(0, 0))
	if err != nil || oob[0].OOB.Seq != maxSeq {
		t.Fatalf("scan reads seq %#x (%v), want %#x", oob[0].OOB.Seq, err, uint64(maxSeq))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("program past the 40-bit sequence did not panic")
		}
	}()
	d.ProgramSubpage(g.PageOf(0, 1), 0, Stamp{LSN: 4})
}

// oddGeometry has no power-of-two dimension, so an off-by-one in the flat
// cell-state indexing cannot hide behind an alignment coincidence (every
// geometry in geometry_variants_test.go is a power of two throughout).
var oddGeometry = Geometry{
	Channels:        3,
	ChipsPerChannel: 1,
	BlocksPerChip:   5,
	PagesPerBlock:   6,
	SubpagesPerPage: 3,
	SubpageBytes:    4096,
}

// deviceImage snapshots every subpage and page of the device.
type deviceImage struct {
	subs   []SubpageInfo
	passes []int
}

func snapshot(d *Device) deviceImage {
	g := d.Geometry()
	img := deviceImage{
		subs:   make([]SubpageInfo, g.TotalSubpages()),
		passes: make([]int, g.TotalPages()),
	}
	for s := range img.subs {
		img.subs[s] = d.SubpageInfo(SubpageID(s))
	}
	for p := range img.passes {
		img.passes[p] = d.PagePasses(PageID(p))
	}
	return img
}

// fillBlock programs every page of b: even pages in one full-page pass, odd
// pages in one ESP pass per slot (which leaves only the last slot intact).
func fillBlock(t *testing.T, d *Device, b BlockID) {
	t.Helper()
	g := d.Geometry()
	for pi := 0; pi < g.PagesPerBlock; pi++ {
		p := g.PageOf(b, pi)
		stamp := func(sub int) Stamp {
			return Stamp{LSN: int64(g.SubpageOf(p, sub)), Version: uint32(d.EraseCount(b) + 1)}
		}
		if pi%2 == 0 {
			stamps := make([]Stamp, g.SubpagesPerPage)
			for sub := range stamps {
				stamps[sub] = stamp(sub)
			}
			if _, err := d.ProgramPageTag(p, stamps, uint8(b)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for sub := 0; sub < g.SubpagesPerPage; sub++ {
			if _, err := d.ProgramSubpageRunTag(p, sub, []Stamp{stamp(sub)}, uint8(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Erasing block b must reset exactly b's pages: the last page of the block
// before it in the chip's cell array and the first page of the block after
// it — like every other page of the device — stay byte-for-byte intact.
func TestEraseTouchesOnlyItsBlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geometry = oddGeometry
	d, err := NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	for b := 0; b < g.TotalBlocks(); b++ {
		fillBlock(t, d, BlockID(b))
	}
	for b := 0; b < g.TotalBlocks(); b++ {
		before := snapshot(d)
		if _, err := d.Erase(BlockID(b)); err != nil {
			t.Fatal(err)
		}
		after := snapshot(d)
		for s := range after.subs {
			blk := g.BlockOfPage(g.PageOfSubpage(SubpageID(s)))
			want := before.subs[s]
			if blk == BlockID(b) {
				want = SubpageInfo{}
			}
			if after.subs[s] != want {
				t.Fatalf("erase of block %d: subpage %d (block %d) = %+v, want %+v", b, s, blk, after.subs[s], want)
			}
		}
		for p := range after.passes {
			want := before.passes[p]
			if g.BlockOfPage(PageID(p)) == BlockID(b) {
				want = 0
			}
			if after.passes[p] != want {
				t.Fatalf("erase of block %d: page %d has %d passes, want %d", b, p, after.passes[p], want)
			}
		}
		// Refill so the next erase again has programmed neighbours.
		fillBlock(t, d, BlockID(b))
	}
}

// Every combination of the programmed, destroyed and torn flags a slot can
// reach reads back the same through SubpageInfo, the read path and the OOB
// scan.
func TestSubpageFlagStatesRoundTrip(t *testing.T) {
	c := newChip(oddGeometry, 0)
	const blk, pg = 2, 5
	at := sim.Time(1000)
	// Slot 0: torn by a power cut (pass 0). Slot 1: programmed in pass 1 —
	// which destroys slot 0's torn cells too — then failed. Slot 2: erased.
	c.tornProgram(blk, pg, 0, 1, at)
	if err := c.programSubpages(blk, pg, 1, []Stamp{{LSN: 7, Version: 3}}, at, 9, 2); err != nil {
		t.Fatal(err)
	}
	c.failProgram(blk, pg, 1, 1)
	// A clean page beside it: slot 0 destroyed by the pass that wrote slot
	// 1, slot 1 live, slot 2 erased.
	if err := c.programSubpages(blk, pg-1, 0, []Stamp{{LSN: 5, Version: 1}}, at, 10, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.programSubpages(blk, pg-1, 1, []Stamp{{LSN: 6, Version: 4}}, at, 11, 2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		page    int
		sub     int
		info    SubpageInfo
		readErr error
		oob     OOBState
	}{
		{"torn then disturbed", pg, 0, SubpageInfo{Programmed: true, Torn: true, Destroyed: true, ProgrammedAt: at}, ErrTorn, OOBTorn},
		{"failed program", pg, 1, SubpageInfo{Programmed: true, Destroyed: true, Npp: 1, ProgrammedAt: at, Stamp: Stamp{LSN: 7, Version: 3}, Seq: 9, Tag: 2}, ErrDestroyed, OOBGarbage},
		{"erased", pg, 2, SubpageInfo{}, ErrNotProgrammed, OOBErased},
		{"destroyed by a later pass", pg - 1, 0, SubpageInfo{Programmed: true, Destroyed: true, ProgrammedAt: at, Stamp: Stamp{LSN: 5, Version: 1}, Seq: 10, Tag: 2}, ErrDestroyed, OOBGarbage},
		{"live", pg - 1, 1, SubpageInfo{Programmed: true, Npp: 1, ProgrammedAt: at, Stamp: Stamp{LSN: 6, Version: 4}, Seq: 11, Tag: 2}, nil, OOBValid},
	} {
		if got := c.subpageInfo(blk, tc.page, tc.sub); got != tc.info {
			t.Errorf("%s: SubpageInfo = %+v, want %+v", tc.name, got, tc.info)
		}
		st, err := refReadSlot(c, blk, tc.page, tc.sub, at)
		if !errors.Is(err, tc.readErr) || (tc.readErr == nil && (err != nil || st != tc.info.Stamp)) {
			t.Errorf("%s: read = %v, %v; want %v, %v", tc.name, st, err, tc.info.Stamp, tc.readErr)
		}
		oob := c.pageOOB(blk, tc.page, make([]SubpageOOB, oddGeometry.SubpagesPerPage))[tc.sub]
		if oob.State != tc.oob {
			t.Errorf("%s: OOB state = %d, want %d", tc.name, oob.State, tc.oob)
		}
		if tc.oob == OOBValid {
			want := OOB{Stamp: tc.info.Stamp, Seq: tc.info.Seq, Npp: tc.info.Npp, ProgrammedAt: tc.info.ProgrammedAt, Tag: tc.info.Tag}
			if oob.OOB != want {
				t.Errorf("%s: OOB = %+v, want %+v", tc.name, oob.OOB, want)
			}
		}
	}
	if _, passes := c.page(blk, pg); *passes != 2 {
		t.Errorf("torn + programmed page counts %d passes, want 2", *passes)
	}
}
