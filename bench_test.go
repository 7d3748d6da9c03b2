// Microbenchmarks for the hot substrate paths, for measuring while you
// work (`go test -bench`). The figure grids are timed by `espbench -run
// <id>` and reported by benchmark/ (experiment.grid_wall_s_w1,
// experiment.grid_speedup), the repository's one performance harness.
package espftl

import (
	"fmt"
	"testing"

	"espftl/internal/buffer"
	"espftl/internal/experiment"
	"espftl/internal/ftl/cgm"
	"espftl/internal/gc"
	"espftl/internal/mapping"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// benchOpts shrinks an experiment to smoke-test size. The geometry is the
// experiment package's quick device: shrinking blocks further over-commits
// the 62 % logical fraction on the page-mapped FTLs (cgm/fgm run out of
// spare blocks during preconditioning).
func benchOpts() experiment.Options {
	return experiment.Options{
		Geometry: experiment.QuickGeometry,
		Requests: 4000,
		Seed:     1,
	}
}

// BenchmarkFTLWrite measures per-request write cost (simulator wall time,
// not virtual time) for each FTL under a sync-small-heavy stream.
func BenchmarkFTLWrite(b *testing.B) {
	for _, kind := range []FTLKind{CGMFTL, FGMFTL, SubFTL} {
		b.Run(string(kind), func(b *testing.B) {
			mk := func() *SSD {
				ssd, err := New(Config{
					FTL: kind,
					Geometry: Geometry{
						Channels: 8, ChipsPerChannel: 4, BlocksPerChip: 16,
						PagesPerBlock: 32, SubpagesPerPage: 4, SubpageBytes: 4096,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				return ssd
			}
			ssd := mk()
			space := ssd.LogicalSectors()
			rng := sim.NewRNG(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A large b.N would write this small drive past its rated
				// endurance (a genuine wear-out, not a bug); swap in a
				// fresh drive periodically.
				if i > 0 && i%100000 == 0 {
					b.StopTimer()
					ssd = mk()
					b.StartTimer()
				}
				// Hot/cold locality as in the paper's workloads; fully
				// uniform sync writes would grind any 20%-region layout.
				lsn := rng.Int63n(space / 64)
				if rng.Bool(0.1) {
					lsn = rng.Int63n(space)
				}
				if err := ssd.Write(lsn, 1, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGCStep measures one bounded incremental collection step —
// victim selection over the per-block view plus up to StepPages page
// relocations — on a page-mapped store whose blocks are half invalid.
func BenchmarkGCStep(b *testing.B) {
	mk := func() *cgm.FTL {
		cfg := nand.DefaultConfig()
		cfg.Geometry = Geometry{
			Channels: 8, ChipsPerChannel: 4, BlocksPerChip: 16,
			PagesPerBlock: 32, SubpagesPerPage: 4, SubpageBytes: 4096,
		}
		dev, err := nand.NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			b.Fatal(err)
		}
		g := dev.Geometry()
		ps := int64(g.SubpagesPerPage)
		logical := int64(float64(g.TotalSubpages())*0.50) / ps * ps
		f, err := cgm.New(dev, cgm.Config{
			LogicalSectors:  logical,
			GCReserveBlocks: g.Chips() + 4,
			// Slack above the block count makes every Tick run one step
			// regardless of pool pressure: the loop measures the step
			// machinery, not the trigger heuristics.
			GC: gc.Options{Policy: "greedy", StepPages: 8, BackgroundSlack: g.TotalBlocks()},
		})
		if err != nil {
			b.Fatal(err)
		}
		// Fill the logical space, then overwrite every other page, so the
		// collector always finds half-valid victims with real copy work.
		for pass := int64(1); pass <= 2; pass++ {
			for lsn := int64(0); lsn < logical; lsn += ps * pass {
				if err := f.Write(lsn, int(ps), false); err != nil {
					b.Fatal(err)
				}
			}
		}
		return f
	}
	f := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Long runs wear the small drive out (steps erase blocks); swap in
		// a fresh pressured drive periodically, off the clock.
		if i > 0 && i%10000 == 0 {
			b.StopTimer()
			f = mk()
			b.StartTimer()
		}
		if err := f.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceProgramSubpage measures the raw device model's subpage
// program path.
func BenchmarkDeviceProgramSubpage(b *testing.B) {
	cfg := nand.DefaultConfig()
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		b.Fatal(err)
	}
	g := dev.Geometry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := nand.BlockID(i % g.TotalBlocks())
		page := g.PageOf(blk, (i/g.TotalBlocks())%g.PagesPerBlock)
		sub := (i / int(g.TotalPages())) % g.SubpagesPerPage
		if _, err := dev.ProgramSubpage(page, sub, nand.Stamp{LSN: int64(i)}); err != nil {
			// Reuse exhausted: erase and continue.
			if _, e := dev.Erase(blk); e != nil {
				b.Fatal(e)
			}
		}
	}
}

// BenchmarkHashTable measures the subpage-mapping hash table.
func BenchmarkHashTable(b *testing.B) {
	h := mapping.NewHashTable(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % (1 << 15))
		if err := h.Put(k, int64(i)); err != nil {
			b.Fatal(err)
		}
		if _, ok := h.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkWriteBuffer measures the FGM write buffer's staging path: one
// sector per op, every eighth a sync write superseding its buffered copy,
// each full page's worth written back.
func BenchmarkWriteBuffer(b *testing.B) {
	buf := buffer.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsns := []int64{int64(i % 4096)}
		if i%8 == 0 {
			buf.Trim(lsns)
			continue
		}
		buf.Stage(lsns)
		for buf.Len() >= 4 {
			buf.Pop(len(buf.Oldest(4)))
		}
	}
}

// BenchmarkWorkloadGenerator measures synthetic request generation.
func BenchmarkWorkloadGenerator(b *testing.B) {
	for _, prof := range workload.Benchmarks() {
		b.Run(prof.Name, func(b *testing.B) {
			gen, err := workload.NewSynthetic(prof, 1<<20, 4, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := gen.Next()
				if r.Sectors <= 0 && r.Op != workload.OpAdvance {
					b.Fatal("bad request")
				}
			}
		})
	}
}

// BenchmarkRetentionModel measures the per-read reliability decision.
func BenchmarkRetentionModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := nand.NppType(i % 4)
		if !nand.Correctable(k, nand.Month/2, nand.RatedPE, nand.DepthFull) {
			b.Fatal("half-month data must be correctable")
		}
	}
}

// Smoke check that an experiment runs and renders at benchOpts scale.
func TestBenchOptionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiment.Fig5(benchOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("fig5 rows = %d", len(table.Rows))
	}
	out := table.String()
	if out == "" || fmt.Sprintf("%s", table.Markdown()) == "" {
		t.Fatal("empty rendering")
	}
}
