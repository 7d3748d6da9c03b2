// Allocation guards for the FTL hot paths, the enforcement side of the
// zero-alloc discipline the microbenchmarks report: steady-state writes,
// reads, and incremental GC steps must not touch the heap on any of the
// three FTLs. Cold-path allocations (mapping-table growth, first-touch
// region fills) are amortized out by warming the drive up first.
package espftl

import (
	"testing"

	"espftl/internal/gc"
	"espftl/internal/nand"
	"espftl/internal/sim"

	cgmftl "espftl/internal/ftl/cgm"
)

// allocGeometry is the small drive the substrate microbenchmarks use.
func allocGeometry() Geometry {
	return Geometry{
		Channels: 8, ChipsPerChannel: 4, BlocksPerChip: 16,
		PagesPerBlock: 32, SubpagesPerPage: 4, SubpageBytes: 4096,
	}
}

// warmSSD builds a drive and brings it to steady state: the whole
// logical space written once (mapping tables at final size, every
// region's structures touched), then a burst of small sync writes so
// the write buffer, sub-region, and GC scratch have all grown to their
// working sizes.
func warmSSD(t testing.TB, kind FTLKind) *SSD {
	t.Helper()
	ssd, err := New(Config{FTL: kind, Geometry: allocGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	space := ssd.LogicalSectors()
	ps := int64(ssd.Geometry().SubpagesPerPage)
	for lsn := int64(0); lsn < space; lsn += ps {
		if err := ssd.Write(lsn, int(ps), false); err != nil {
			t.Fatal(err)
		}
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 4000; i++ {
		if err := ssd.Write(rng.Int63n(space/64), 1, true); err != nil {
			t.Fatal(err)
		}
	}
	return ssd
}

func TestFTLWriteAllocs(t *testing.T) {
	for _, kind := range []FTLKind{CGMFTL, FGMFTL, SubFTL} {
		t.Run(string(kind), func(t *testing.T) {
			ssd := warmSSD(t, kind)
			space := ssd.LogicalSectors()
			rng := sim.NewRNG(11)
			avg := testing.AllocsPerRun(400, func() {
				if err := ssd.Write(rng.Int63n(space/64), 1, true); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s steady-state write allocates %.2f objects per op, want 0", kind, avg)
			}
			// AllocsPerRun truncates its average, so an allocation per
			// collection or per block entering a region (one in ~100
			// writes) reads as 0 above. Count per batch instead, each batch
			// long enough to collect (internal/core's
			// TestRegionCollectionAllocs pins the subpage region's own
			// collector the same way).
			gcBefore := ssd.Stats().GCInvocations
			perBatch := testing.AllocsPerRun(5, func() {
				for i := 0; i < 1500; i++ {
					if err := ssd.Write(rng.Int63n(space/64), 1, true); err != nil {
						t.Fatal(err)
					}
				}
			})
			if collections := ssd.Stats().GCInvocations - gcBefore; collections < 6 {
				t.Fatalf("%s: only %d collections in 6 batches; the guard needs at least one per batch", kind, collections)
			}
			if perBatch != 0 {
				t.Errorf("%s allocates %.0f objects per 1500 writes with GC running, want 0", kind, perBatch)
			}
		})
	}
}

func TestFTLReadAllocs(t *testing.T) {
	for _, kind := range []FTLKind{CGMFTL, FGMFTL, SubFTL} {
		t.Run(string(kind), func(t *testing.T) {
			ssd := warmSSD(t, kind)
			space := ssd.LogicalSectors()
			ps := ssd.Geometry().SubpagesPerPage
			rng := sim.NewRNG(13)
			avg := testing.AllocsPerRun(400, func() {
				lsn := rng.Int63n(space/int64(ps)) * int64(ps)
				if err := ssd.Read(lsn, ps); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s steady-state read allocates %.2f objects per op, want 0", kind, avg)
			}
		})
	}
}

// TestGCStepAllocs pins the bounded incremental collection step — victim
// selection plus page relocations — at zero allocations, on the same
// half-invalid drive BenchmarkGCStep measures.
func TestGCStepAllocs(t *testing.T) {
	cfg := nand.DefaultConfig()
	cfg.Geometry = allocGeometry()
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	logical := int64(float64(g.TotalSubpages())*0.50) / ps * ps
	f, err := cgmftl.New(dev, cgmftl.Config{
		LogicalSectors:  logical,
		GCReserveBlocks: g.Chips() + 4,
		GC:              gc.Options{Policy: "greedy", StepPages: 8, BackgroundSlack: g.TotalBlocks()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for pass := int64(1); pass <= 2; pass++ {
		for lsn := int64(0); lsn < logical; lsn += ps * pass {
			if err := f.Write(lsn, int(ps), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A few steps first so the collector's own scratch is grown.
	for i := 0; i < 50; i++ {
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("GC step allocates %.2f objects per op, want 0", avg)
	}
}
