package nand

import (
	"math/rand"
	"testing"

	"espftl/internal/sim"
)

// These guards lock in the zero-allocation contract of the device hot
// path: steady-state programs, reads and OOB operations must not touch
// the heap. They are the enforcement side of the borrow contract on
// ReadPage/ScanPageOOB (device-owned scratch, overwritten per call).

// allocDevice builds a device big enough that the guard loops never wrap.
func allocDevice(t testing.TB) *Device {
	cfg := DefaultConfig()
	cfg.Geometry = tinyGeometry()
	cfg.Geometry.BlocksPerChip = 64
	cfg.Geometry.PagesPerBlock = 64
	d, err := NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestProgramPageAllocs(t *testing.T) {
	d := allocDevice(t)
	g := d.Geometry()
	stamps := []Stamp{{LSN: 1, Version: 1}, {LSN: 2, Version: 1}, {LSN: 3, Version: 1}, {LSN: 4, Version: 1}}
	pi, bi := 0, 0
	avg := testing.AllocsPerRun(200, func() {
		if _, err := d.ProgramPage(g.PageOf(BlockID(bi), pi), stamps); err != nil {
			t.Fatal(err)
		}
		pi++
		if pi == g.PagesPerBlock {
			pi = 0
			bi++
		}
	})
	if avg != 0 {
		t.Errorf("ProgramPage allocates %.1f objects per op, want 0", avg)
	}
}

func TestProgramSubpageRunAllocs(t *testing.T) {
	d := allocDevice(t)
	g := d.Geometry()
	stamps := []Stamp{{LSN: 1, Version: 1}, {LSN: 2, Version: 1}}
	pi, bi := 0, 0
	avg := testing.AllocsPerRun(200, func() {
		if _, err := d.ProgramSubpageRun(g.PageOf(BlockID(bi), pi), 1, stamps); err != nil {
			t.Fatal(err)
		}
		pi++
		if pi == g.PagesPerBlock {
			pi = 0
			bi++
		}
	})
	if avg != 0 {
		t.Errorf("ProgramSubpageRun allocates %.1f objects per op, want 0", avg)
	}
}

func TestReadPageAllocs(t *testing.T) {
	d := allocDevice(t)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	stamps := []Stamp{{LSN: 1, Version: 1}, {LSN: 2, Version: 1}, {LSN: 3, Version: 1}, {LSN: 4, Version: 1}}
	if _, err := d.ProgramPage(p, stamps); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		got, errs, err := d.ReadPage(p)
		if err != nil || errs[0] != nil || got[0].LSN != 1 {
			t.Fatalf("read: %v %v %v", got, errs, err)
		}
	})
	if avg != 0 {
		t.Errorf("ReadPage allocates %.1f objects per op, want 0", avg)
	}
}

func TestReadSubpageAllocs(t *testing.T) {
	d := allocDevice(t)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	if _, err := d.ProgramPage(p, []Stamp{{LSN: 1, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	s := g.SubpageOf(p, 0)
	avg := testing.AllocsPerRun(200, func() {
		st, err := d.ReadSubpage(s)
		if err != nil || st.LSN != 1 {
			t.Fatalf("read: %v %v", st, err)
		}
	})
	if avg != 0 {
		t.Errorf("ReadSubpage allocates %.1f objects per op, want 0", avg)
	}
}

func TestScanPageOOBAllocs(t *testing.T) {
	d := allocDevice(t)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	if _, err := d.ProgramPage(p, []Stamp{{LSN: 1, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		slots, err := d.ScanPageOOB(p)
		if err != nil || slots[0].State != OOBValid {
			t.Fatalf("scan: %v %v", slots, err)
		}
	})
	if avg != 0 {
		t.Errorf("ScanPageOOB allocates %.1f objects per op, want 0", avg)
	}
}

func TestEncodeDecodeOOBAllocs(t *testing.T) {
	rec := OOB{Stamp: Stamp{LSN: 42, Version: 7}, Seq: 99, Npp: 2, ProgrammedAt: 1234, Tag: 3}
	avg := testing.AllocsPerRun(200, func() {
		enc := EncodeOOB(rec)
		got, err := DecodeOOB(enc[:])
		if err != nil || got != rec {
			t.Fatalf("round trip: %v %v", got, err)
		}
	})
	if avg != 0 {
		t.Errorf("OOB encode/decode allocates %.1f objects per op, want 0", avg)
	}
}

// BenchmarkDeviceProgram measures one steady-state ESP subpage-run program
// (run with -benchmem: the allocs/op column must stay 0).
func BenchmarkDeviceProgram(b *testing.B) {
	d := allocDevice(b)
	g := d.Geometry()
	stamps := []Stamp{{LSN: 1, Version: 1}, {LSN: 2, Version: 1}}
	pi, bi := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ProgramSubpageRun(g.PageOf(BlockID(bi), pi), 0, stamps); err != nil {
			b.Fatal(err)
		}
		pi++
		if pi == g.PagesPerBlock {
			pi = 0
			bi++
			if bi == g.TotalBlocks() {
				b.StopTimer()
				for bb := 0; bb < g.TotalBlocks(); bb++ {
					if _, err := d.Erase(BlockID(bb)); err != nil {
						b.Fatal(err)
					}
				}
				bi = 0
				b.StartTimer()
			}
		}
	}
}

// BenchmarkDeviceRead measures one steady-state full-page read.
func BenchmarkDeviceRead(b *testing.B) {
	d := allocDevice(b)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	if _, err := d.ProgramPage(p, []Stamp{{LSN: 1, Version: 1}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.ReadPage(p); err != nil {
			b.Fatal(err)
		}
	}
}

// slot addresses one subpage slot of a page.
type slot struct {
	p   PageID
	sub int
}

// randomDevice builds a DefaultGeometry device and a seeded random order
// of its subpage slots, the access pattern of the simulators: consecutive
// operations land on unrelated chips, blocks and pages.
func randomDevice(b *testing.B) (*Device, []slot) {
	d, err := NewDevice(DefaultConfig(), sim.NewClock(0))
	if err != nil {
		b.Fatal(err)
	}
	g := d.Geometry()
	order := make([]slot, g.TotalSubpages())
	for i, s := range rand.New(rand.NewSource(1)).Perm(len(order)) {
		order[i] = slot{g.PageOfSubpage(SubpageID(s)), g.SubIndex(SubpageID(s))}
	}
	return d, order
}

// programSlot writes one slot in its own ESP pass.
func programSlot(b *testing.B, d *Device, s slot) {
	if _, err := d.ProgramSubpage(s.p, s.sub, Stamp{LSN: int64(s.p), Version: 1}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDeviceReadRandom measures one full-page read of a random page
// of a full DefaultGeometry device whose pages took one ESP pass per slot
// in random slot order.
func BenchmarkDeviceReadRandom(b *testing.B) {
	d, order := randomDevice(b)
	for _, s := range order {
		programSlot(b, d, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.ReadPage(order[i%len(order)].p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceProgramRandom measures one single-subpage ESP pass on a
// DefaultGeometry device, visiting every slot once in random order; the
// device is filled once before timing and erased whenever the order wraps.
func BenchmarkDeviceProgramRandom(b *testing.B) {
	d, order := randomDevice(b)
	eraseAll := func() {
		for blk := 0; blk < d.Geometry().TotalBlocks(); blk++ {
			if _, err := d.Erase(BlockID(blk)); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, s := range order {
		programSlot(b, d, s)
	}
	eraseAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(order) == 0 {
			b.StopTimer()
			eraseAll()
			b.StartTimer()
		}
		programSlot(b, d, order[i%len(order)])
	}
}

// BenchmarkDeviceScanOOB measures one mount-scan page sense.
func BenchmarkDeviceScanOOB(b *testing.B) {
	d := allocDevice(b)
	g := d.Geometry()
	p := g.PageOf(0, 0)
	if _, err := d.ProgramPage(p, []Stamp{{LSN: 1, Version: 1}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ScanPageOOB(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRetentionModelAllocs: the reliability decision runs on every
// subpage sense and every scrub check; its wear- and depth-aware forms
// must stay pure arithmetic.
func TestRetentionModelAllocs(t *testing.T) {
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		k := NppType(i % 4)
		i++
		if ber := NormalizedBER(k, Month/2, float64(RatedPE)/2, MinEraseDepth); ber <= 0 {
			t.Fatalf("NormalizedBER(%v) = %v", k, ber)
		}
		if !Correctable(k, Month/2, float64(RatedPE)/2, DepthFull) {
			t.Fatalf("half-month %v data at half wear must be correctable", k)
		}
	})
	if avg != 0 {
		t.Errorf("NormalizedBER+Correctable allocate %.1f objects per call, want 0", avg)
	}
}
