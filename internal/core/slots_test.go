package core

import (
	"errors"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// quickFaultyFTL is quickFTL over a device with an idle fault injector,
// for the test to script program failures and a power cut on.
func quickFaultyFTL(t *testing.T) (*FTL, *fault.Injector, Config) {
	t.Helper()
	inj, err := fault.NewInjector(fault.Profile{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	devCfg := nand.DefaultConfig()
	devCfg.Geometry = quickGeometry
	devCfg.Fault = inj
	dev, err := nand.NewDevice(devCfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	sectors := int64(float64(g.TotalSubpages())*0.70) / ps * ps
	cfg := DefaultConfig(sectors)
	cfg.GCReserveBlocks = g.Chips() + 4
	f, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill := int64(float64(sectors)*0.89) / ps * ps
	if err := f.Write(0, int(fill), false); err != nil {
		t.Fatal(err)
	}
	return f, inj, cfg
}

// Region slots follow region blocks through every way in and out of the
// region: growth to the quota, region collection, reclaim of empty blocks,
// a program failure that retires the write block, and a power cut with its
// remount. Check holds after every step (one slot per region block, none
// shared, free slots empty), and the slabs never grow past what New
// provisioned.
func TestRegionSlotsFollowBlocks(t *testing.T) {
	f, inj, cfg := quickFaultyFTL(t)
	gen, err := workload.NewSynthetic(workload.Sysbench(), cfg.LogicalSectors, f.PageSecs, 5)
	if err != nil {
		t.Fatal(err)
	}
	provisioned := len(f.slots.owner)
	check := func(step string) {
		t.Helper()
		if err := f.Check(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if f.slots.held() != f.subBlocks {
			t.Fatalf("%s: %d slots held by %d region blocks", step, f.slots.held(), f.subBlocks)
		}
		if len(f.slots.owner) > provisioned || f.slots.peak > f.subQuota+slotMargin {
			t.Fatalf("%s: %d slots, peak %d; New provisioned %d for a quota of %d", step, len(f.slots.owner), f.slots.peak, provisioned, f.subQuota)
		}
	}
	drive := func(step string, until func() bool) {
		t.Helper()
		n := 0
		for i := 0; !until(); i++ {
			if i == 200000 {
				t.Fatalf("%s: not reached in %d requests", step, i)
			}
			if err := ftl.Apply(f, gen.Next()); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if i%2000 == 0 {
				check(step)
			}
			n = i
		}
		t.Logf("%s: %d requests, %d region blocks, peak %d", step, n, f.subBlocks, f.slots.peak)
		check(step)
	}
	check("preconditioned")

	drive("growth to the quota", func() bool { return f.subBlocks >= f.subQuota })
	steps := f.subCol.Steps()
	drive("region collection", func() bool { return f.subCol.Steps() >= steps+20 })

	// Trimming everything empties the region; reclaim hands all but the
	// minimal region back, and the host's next writes take the freed slots.
	if err := f.Trim(0, int(cfg.LogicalSectors)); err != nil {
		t.Fatal(err)
	}
	reclaimed := 0
	for f.reclaimEmptySubBlock() {
		reclaimed++
	}
	check("reclaim")
	if reclaimed == 0 || f.subBlocks > minRegionBlocks+2 || len(f.slots.free) < provisioned-f.subBlocks {
		t.Fatalf("reclaimed %d blocks, %d left in the region, %d free slots", reclaimed, f.subBlocks, len(f.slots.free))
	}
	drive("regrowth", func() bool { return f.subBlocks >= f.subQuota })

	// A failed pass retires the write block and replays on a fresh one;
	// the retired block keeps its slot until collection drains it.
	bad := f.Stats().GrownBadBlocks
	failEveryProgram(inj, 1)
	if err := f.Write(7, 1, true); err != nil {
		t.Fatal(err)
	}
	if f.Stats().GrownBadBlocks != bad+1 || f.Counters.ProgramFailMoves == 0 {
		t.Fatalf("the scripted failure retired %d blocks, replayed %d passes", f.Stats().GrownBadBlocks-bad, f.Counters.ProgramFailMoves)
	}
	retired := nand.BlockID(-1)
	for b := range f.meta {
		if f.meta[b].inUse && f.Man.Bad(nand.BlockID(b)) {
			retired = nand.BlockID(b)
		}
	}
	if retired < 0 {
		t.Fatal("the scripted failure retired no region block")
	}
	check("program failure")
	drive("retired block drained", func() bool { return f.Man.State(retired) == ftl.StateBad })
	if f.meta[retired].inUse {
		t.Fatalf("drained block %d still holds slot %d", retired, f.meta[retired].slot)
	}

	// A power cut mid-stream, then a fresh FTL mounts the device: every
	// region block the scan adopts takes a slot.
	inj.ArmSPO(f.Dev.OpCount()+500, true)
	for {
		err := ftl.Apply(f, gen.Next())
		if errors.Is(err, nand.ErrPowerLoss) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	f.Dev.PowerOn()
	m, err := New(f.Dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	if m.subBlocks < minRegionBlocks || m.slots.held() != m.subBlocks {
		t.Fatalf("mount adopted %d region blocks into %d slots", m.subBlocks, m.slots.held())
	}
	f, provisioned = m, len(m.slots.owner)
	check("recovered")
	drive("after recovery", func() bool { return f.subCol.Steps() >= 20 })
	t.Logf("slot peak %d of %d provisioned, quota %d", f.slots.peak, provisioned, f.subQuota)
}
