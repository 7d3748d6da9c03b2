package core

import (
	"fmt"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// The region's block choices as they ran before they moved onto the
// manager's valid-ordered index: each walks every block of the device.
// They are the reference pickAdvance, pickOpenVictim and
// reclaimEmptySubBlock's candidate walk must agree with.

func (f *FTL) oraclePickAdvance(preferChip int) (nand.BlockID, bool) {
	g := f.Dev.Geometry()
	best := nand.BlockID(-1)
	bestValid := int(^uint(0) >> 1)
	bestOnChip := nand.BlockID(-1)
	bestOnChipValid := int(^uint(0) >> 1)
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if !f.meta[b].inUse || f.Man.State(id) != ftl.StateOpen {
			continue
		}
		if f.gcDestSet && id == f.gcDest {
			continue
		}
		if (f.wbSet && id == f.wb) || f.subCol.InFlight(id) {
			continue
		}
		if f.meta[b].round >= f.PageSecs-1 {
			continue
		}
		v := f.Man.Valid(id)
		if v >= g.PagesPerBlock {
			continue
		}
		if v < bestValid {
			best, bestValid = id, v
		}
		if g.ChipOf(id) == preferChip && v < bestOnChipValid {
			bestOnChip, bestOnChipValid = id, v
		}
	}
	if bestOnChip >= 0 && bestOnChipValid <= bestValid+8 {
		return bestOnChip, true
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func (f *FTL) oraclePickOpenVictim() (nand.BlockID, bool) {
	g := f.Dev.Geometry()
	best := nand.BlockID(-1)
	bestValid := int(^uint(0) >> 1)
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if !f.meta[b].inUse || f.Man.State(id) != ftl.StateOpen {
			continue
		}
		if (f.gcDestSet && id == f.gcDest) || (f.wbSet && id == f.wb) || f.subCol.InFlight(id) {
			continue
		}
		if v := f.Man.Valid(id); v < bestValid {
			best, bestValid = id, v
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// oracleEmptySubBlock is the candidate walk of the old
// reclaimEmptySubBlock: the first block, by ID, it would have recycled.
func (f *FTL) oracleEmptySubBlock() (nand.BlockID, bool) {
	g := f.Dev.Geometry()
	for b := 0; b < g.TotalBlocks(); b++ {
		id := nand.BlockID(b)
		if !f.meta[b].inUse || f.Man.Valid(id) != 0 {
			continue
		}
		if f.Man.State(id) == ftl.StateFree {
			continue
		}
		if (f.gcDestSet && id == f.gcDest) || (f.wbSet && id == f.wb) {
			continue
		}
		if f.subCol.InFlight(id) {
			continue
		}
		return id, true
	}
	return 0, false
}

// quickGeometry is experiment.QuickGeometry (which this package cannot
// import): the device every espsim run and figure table uses by default.
var quickGeometry = nand.Geometry{
	Channels:        8,
	ChipsPerChannel: 4,
	BlocksPerChip:   16,
	PagesPerBlock:   32,
	SubpagesPerPage: 4,
	SubpageBytes:    4096,
}

// quickFTL builds subFTL the way experiment.Build does on the quick
// device and preconditions it to the paper's fill.
func quickFTL(t *testing.T, opts gc.Options) (*FTL, int64) {
	t.Helper()
	devCfg := nand.DefaultConfig()
	devCfg.Geometry = quickGeometry
	dev, err := nand.NewDevice(devCfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	sectors := int64(float64(g.TotalSubpages())*0.70) / ps * ps
	cfg := DefaultConfig(sectors)
	cfg.GCReserveBlocks = g.Chips() + 4
	cfg.GC = opts
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill := int64(float64(sectors)*0.89) / ps * ps
	for lsn := int64(0); lsn < fill; lsn += 8 * ps {
		if err := f.Write(lsn, int(min(8*ps, fill-lsn)), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	return f, sectors
}

// Between requests of the two benchmark workloads, whole-block and
// incremental GC, every index-based region choice equals its scan.
func TestVictimIndexMatchesScan(t *testing.T) {
	requests := 12000
	if testing.Short() {
		requests = 3000
	}
	for _, prof := range []workload.Profile{workload.Sysbench(), workload.TPCC()} {
		for _, step := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s/step%d", prof.Name, step), func(t *testing.T) {
				f, sectors := quickFTL(t, gc.Options{StepPages: step})
				gen, err := workload.NewSynthetic(prof, sectors, f.PageSecs, 7)
				if err != nil {
					t.Fatal(err)
				}
				chips := f.Dev.Geometry().Chips()
				advances, victims, empties := 0, 0, 0
				for i := 0; i < requests; i++ {
					r := gen.Next()
					if err := ftl.Apply(f, r); err != nil {
						t.Fatalf("request %d (%v): %v", i, r, err)
					}
					if i%64 == 0 {
						if err := f.Tick(); err != nil {
							t.Fatal(err)
						}
					}
					if i%3 != 0 {
						continue
					}
					for chip := 0; chip < chips; chip++ {
						got, ok := f.pickAdvance(chip)
						want, wok := f.oraclePickAdvance(chip)
						if ok != wok || (ok && got != want) {
							t.Fatalf("request %d: pickAdvance(%d) = %d ok=%v, scan %d ok=%v", i, chip, got, ok, want, wok)
						}
						if ok {
							advances++
						}
					}
					got, ok := f.pickOpenVictim()
					want, wok := f.oraclePickOpenVictim()
					if ok != wok || (ok && got != want) {
						t.Fatalf("request %d: pickOpenVictim = %d ok=%v, scan %d ok=%v", i, got, ok, want, wok)
					}
					if ok {
						victims++
					}
					got, ok = f.emptySubBlockFrom(0)
					want, wok = f.oracleEmptySubBlock()
					if ok != wok || (ok && got != want) {
						t.Fatalf("request %d: first empty region block = %d ok=%v, scan %d ok=%v", i, got, ok, want, wok)
					}
					if ok {
						empties++
					}
				}
				t.Logf("compared %d round-advance, %d open-victim and %d empty-block choices", advances, victims, empties)
				if victims == 0 || (advances == 0 && prof.Name == "Sysbench") {
					t.Fatal("the comparison never had a candidate to choose")
				}
				if err := f.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// The write path must not allocate across region collections: the
// collector's target and view are built once in New, and a block entering
// the region takes its nextIdx array from the slab. Each counted run is a
// batch long enough to collect, because AllocsPerRun truncates its average
// and one allocation per collection (one in ~120 writes) would read as 0.
func TestRegionCollectionAllocs(t *testing.T) {
	for _, step := range []int{0, 8} {
		f, sectors := quickFTL(t, gc.Options{StepPages: step})
		gen, err := workload.NewSynthetic(workload.Sysbench(), sectors, f.PageSecs, 3)
		if err != nil {
			t.Fatal(err)
		}
		batch := func() {
			for i := 0; i < 4000; i++ {
				if err := ftl.Apply(f, gen.Next()); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 5; i++ {
			batch() // grow every scratch buffer to its working size
		}
		before := f.subCol.Steps()
		allocs := testing.AllocsPerRun(4, batch)
		if steps := f.subCol.Steps() - before; steps < 5 {
			t.Fatalf("step %d: %d region collection steps in 5 batches; the guard needs one per batch", step, steps)
		}
		if allocs != 0 {
			t.Errorf("step %d: %.0f allocations per 4000 requests with region GC running, want 0", step, allocs)
		}
	}
}
