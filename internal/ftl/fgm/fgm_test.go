package fgm

import (
	"testing"

	"espftl/internal/ftltest"
)

func newEnv(t *testing.T) *ftltest.Env {
	dev := ftltest.TinyDevice(t)
	f, err := New(dev, Config{LogicalSectors: 512, GCReserveBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &ftltest.Env{Dev: dev, FTL: f, Sectors: 512}
}

func TestConformance(t *testing.T) {
	ftltest.Run(t, newEnv)
}

func TestNewRejectsBadConfig(t *testing.T) {
	dev := ftltest.TinyDevice(t)
	if _, err := New(dev, Config{LogicalSectors: 0}); err == nil {
		t.Error("zero logical space accepted")
	}
}

// The defining FGM behaviours: async small writes merge into full pages
// (request WAF 1), sync small writes flush alone and waste the page
// (request WAF N_sub).
func TestAsyncMergeVsSyncFragmentation(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	// Four scattered async sectors pack into one physical page.
	for _, lsn := range []int64{10, 100, 200, 300} {
		if err := f.Write(lsn, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Device.PagePrograms != 1 {
		t.Fatalf("4 async sectors programmed %d pages, want 1", s.Device.PagePrograms)
	}
	if got := s.AvgRequestWAF(); got != 1.0 {
		t.Fatalf("merged request WAF = %v, want 1.0", got)
	}
	// Four sync sectors each burn a full page.
	for _, lsn := range []int64{20, 120, 220, 320} {
		if err := f.Write(lsn, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	s = f.Stats()
	if s.Device.PagePrograms != 5 {
		t.Fatalf("PagePrograms = %d, want 5", s.Device.PagePrograms)
	}
	// 8 small sectors: 4 at WAF 1, 4 at WAF 4 → mean 2.5.
	if got := s.AvgRequestWAF(); got != 2.5 {
		t.Fatalf("request WAF = %v, want 2.5", got)
	}
}

func TestBufferAbsorbsRewrites(t *testing.T) {
	env := newEnv(t)
	f := env.FTL
	for i := 0; i < 3; i++ {
		if err := f.Write(42, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.BufferAbsorbed != 2 {
		t.Fatalf("BufferAbsorbed = %d, want 2", s.BufferAbsorbed)
	}
	if s.Device.PagePrograms != 0 {
		t.Fatalf("programs = %d, want 0 (still buffered)", s.Device.PagePrograms)
	}
	if err := f.Read(42, 1); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().ReadBufferHits; got != 1 {
		t.Fatalf("ReadBufferHits = %d, want 1", got)
	}
}

func TestGCPacksValidSectors(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	ps := env.Dev.Geometry().SubpagesPerPage
	// Fill a working set, then overwrite most of it to create dirty
	// blocks with few valid sectors.
	for lsn := int64(0); lsn < 256; lsn += int64(ps) {
		if err := f.Write(lsn, ps, false); err != nil {
			t.Fatal(err)
		}
	}
	totalSub := int(env.Dev.Geometry().TotalSubpages())
	for i := 0; i < totalSub*2; i++ {
		if err := f.Write(int64(i%224), 1, false); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.GCInvocations == 0 {
		t.Fatal("no GC under churn")
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	// The never-overwritten tail [224,256) must have survived GC.
	for lsn := int64(224); lsn < 256; lsn++ {
		if err := f.Read(lsn, 1); err != nil {
			t.Fatalf("lsn %d lost in GC: %v", lsn, err)
		}
	}
}

func TestMappingFootprintFine(t *testing.T) {
	env := newEnv(t)
	s := env.FTL.Stats()
	if s.MappingBytes != 512*8 {
		t.Fatalf("MappingBytes = %d, want %d", s.MappingBytes, 512*8)
	}
}
