package fullpage

import (
	"strings"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/lifetime"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

func testStore(t *testing.T) (*Store, *nand.Device, *ftl.Stats) {
	t.Helper()
	cfg := nand.DefaultConfig()
	cfg.Geometry = nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		BlocksPerChip:   4,
		PagesPerBlock:   8,
		SubpagesPerPage: 4,
		SubpageBytes:    4096,
	}
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	stats := &ftl.Stats{}
	ver := ftl.NewVersions(256)
	s, err := New(dev, ftl.NewManager(dev, nil), ver, stats, Config{LogicalPages: 64, Reserve: 2, Placement: lifetime.SizeRouted{}})
	if err != nil {
		t.Fatal(err)
	}
	return s, dev, stats
}

// bump is a test helper: the store expects callers to bump versions first.
func bump(s *Store, lpn int64, slots []int) {
	for _, slot := range slots {
		s.ver.Bump(lpn*int64(s.pageSecs)+int64(slot), len(slots) < s.pageSecs)
	}
}

func TestNewValidation(t *testing.T) {
	_, dev, _ := func() (*Store, *nand.Device, *ftl.Stats) { s, d, st := testStore(t); return s, d, st }()
	stats := &ftl.Stats{}
	if _, err := New(dev, ftl.NewManager(dev, nil), ftl.NewVersions(4), stats, Config{LogicalPages: 64, Reserve: 2}); err == nil {
		t.Error("undersized version tracker accepted")
	}
	if _, err := New(dev, ftl.NewManager(dev, nil), ftl.NewVersions(256), stats, Config{Reserve: 2}); err == nil {
		t.Error("zero logical pages accepted")
	}
	big := nand.DefaultConfig()
	big.Geometry.SubpagesPerPage = 128
	big.Geometry.SubpageBytes = 512
	bigDev, err := nand.NewDevice(big, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(bigDev, ftl.NewManager(bigDev, nil), ftl.NewVersions(1<<20), stats, Config{LogicalPages: 64, Reserve: 2}); err == nil {
		t.Error("128-subpage geometry accepted despite 64-bit mask")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, _, _ := testStore(t)
	bump(s, 3, []int{0, 1, 2, 3})
	if err := s.WriteSectors(3, []int{0, 1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadSectors(3, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !s.Mapped(3) || s.Mask(3) != 0xF {
		t.Fatalf("mapped=%v mask=%x", s.Mapped(3), s.Mask(3))
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialWriteRMW(t *testing.T) {
	s, dev, stats := testStore(t)
	bump(s, 0, []int{0, 1, 2, 3})
	if err := s.WriteSectors(0, []int{0, 1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if stats.RMWOps != 0 {
		t.Fatalf("initial write RMWd: %d", stats.RMWOps)
	}
	bump(s, 0, []int{1})
	if err := s.WriteSectors(0, []int{1}, 16384); err != nil {
		t.Fatal(err)
	}
	if stats.RMWOps != 1 {
		t.Fatalf("RMWOps = %d, want 1", stats.RMWOps)
	}
	if stats.SmallFlashBytes != 16384 {
		t.Fatalf("SmallFlashBytes = %d", stats.SmallFlashBytes)
	}
	if dev.Counters().PageReads == 0 {
		t.Fatal("RMW did not read")
	}
	// All four sectors still read their newest versions.
	if err := s.ReadSectors(0, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialWriteNoOldData(t *testing.T) {
	s, _, stats := testStore(t)
	bump(s, 5, []int{2})
	if err := s.WriteSectors(5, []int{2}, 0); err != nil {
		t.Fatal(err)
	}
	if stats.RMWOps != 0 {
		t.Fatal("write-allocate counted as RMW")
	}
	if s.Mask(5) != 0x4 {
		t.Fatalf("mask = %x", s.Mask(5))
	}
	// Dead slots read as zeroes without error.
	if err := s.ReadSectors(5, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimReleasesMapping(t *testing.T) {
	s, _, _ := testStore(t)
	bump(s, 7, []int{0, 1})
	if err := s.WriteSectors(7, []int{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	s.TrimSectors(7, []int{0})
	if !s.Mapped(7) {
		t.Fatal("mapping released while a sector lives")
	}
	s.TrimSectors(7, []int{1})
	if s.Mapped(7) {
		t.Fatal("mapping survives full trim")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadSectors(7, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestGCUnderOverwrite(t *testing.T) {
	s, dev, stats := testStore(t)
	// Overwrite one page more times than the device holds pages.
	n := int(dev.Geometry().TotalPages()) * 2
	for i := 0; i < n; i++ {
		bump(s, 1, []int{0, 1, 2, 3})
		if err := s.WriteSectors(1, []int{0, 1, 2, 3}, 0); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
	if stats.GCInvocations == 0 {
		t.Fatal("no GC")
	}
	if err := s.ReadSectors(1, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGCPreservesColdPagesAndAttributes(t *testing.T) {
	s, _, stats := testStore(t)
	// Cold sector written once via the small path (small origin), landing
	// in the first page of the active block.
	bump(s, 40, []int{0})
	if err := s.WriteSectors(40, []int{0}, 16384); err != nil {
		t.Fatal(err)
	}
	attr := stats.SmallFlashBytes
	// Fill the whole host stripe (4 chips x 8 pages), then invalidate
	// everything but the cold sector by rewriting, leaving four full
	// blocks of which only the cold one holds data.
	for round := 0; round < 2; round++ {
		for lpn := int64(1); lpn <= 31; lpn++ {
			bump(s, lpn, []int{0, 1, 2, 3})
			if err := s.WriteSectors(lpn, []int{0, 1, 2, 3}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Collect until the cold block (the only full block with valid data)
	// has been the victim; the earlier victims are the zero-valid blocks.
	for i := 0; i < 12 && stats.GCMovedSectors == 0; i++ {
		if err := s.CollectOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if stats.GCMovedSectors == 0 {
		t.Fatal("cold page never relocated")
	}
	if stats.SmallFlashBytes <= attr {
		t.Fatal("relocation of small-origin sector not attributed")
	}
	if err := s.ReadSectors(40, []int{0}); err != nil {
		t.Fatalf("cold page lost: %v", err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSectorsRejectsBadSlots(t *testing.T) {
	s, _, _ := testStore(t)
	if err := s.WriteSectors(0, nil, 0); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty write: %v", err)
	}
	if err := s.WriteSectors(0, []int{-1}, 0); err == nil {
		t.Error("negative slot accepted")
	}
	if err := s.WriteSectors(0, []int{4}, 0); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

func TestMappingBytes(t *testing.T) {
	s, _, _ := testStore(t)
	if got := s.MappingBytes(); got != 64*8+64*8 {
		t.Fatalf("MappingBytes = %d", got)
	}
	if s.LogicalPages() != 64 {
		t.Fatalf("LogicalPages = %d", s.LogicalPages())
	}
}
