package ftl

import (
	"testing"

	"espftl/internal/fault"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// faultyDevice builds the small test device with an armed fault injector.
func faultyDevice(t *testing.T, p fault.Profile, script ...fault.Event) *nand.Device {
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
	inj, err := fault.NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range script {
		inj.Script(ev)
	}
	cfg.Fault = inj
	d, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRetireFreeBlockNeverReallocated(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	total := dev.Geometry().TotalBlocks()
	victim := nand.BlockID(3)
	m.Retire(victim)
	if m.State(victim) != StateBad || !m.Bad(victim) {
		t.Fatalf("retired free block: state %v bad %v", m.State(victim), m.Bad(victim))
	}
	if m.BadCount() != 1 || m.FreeCount() != total-1 || m.Usable() != total-1 {
		t.Fatalf("counts after retire: bad %d free %d usable %d", m.BadCount(), m.FreeCount(), m.Usable())
	}
	for i := 0; i < total-1; i++ {
		b, ok := m.Alloc(RoleFull)
		if !ok {
			t.Fatalf("Alloc %d failed with free blocks remaining", i)
		}
		if b == victim {
			t.Fatal("retired block came back out of the free pool")
		}
	}
	if _, ok := m.Alloc(RoleFull); ok {
		t.Fatal("pool should be exhausted without the retired block")
	}
	// Retiring again is a no-op.
	m.Retire(victim)
	if m.BadCount() != 1 {
		t.Fatalf("double retire counted twice: %d", m.BadCount())
	}
}

func TestRetireOpenBlockDrainsThroughGC(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	b, _ := m.Alloc(RoleSub)
	m.AddValid(b, 2)
	m.Retire(b)
	// Live data: the block parks in StateFull so GC can drain it.
	if m.State(b) != StateFull || !m.Bad(b) {
		t.Fatalf("retired open block: state %v bad %v", m.State(b), m.Bad(b))
	}
	if m.Role(b) != RoleSub {
		t.Fatalf("retire dropped the role: %v", m.Role(b))
	}
	m.AddValid(b, -2)
	if err := m.Recycle(b); err != nil {
		t.Fatal(err)
	}
	// Drained: parked in StateBad without an erase, not returned to pool.
	if m.State(b) != StateBad {
		t.Fatalf("drained bad block state = %v, want StateBad", m.State(b))
	}
	if dev.EraseCount(b) != 0 {
		t.Fatal("recycling a retired block erased it")
	}
	if m.FreeCount() != dev.Geometry().TotalBlocks()-1 {
		t.Fatalf("free count %d counts the retired block", m.FreeCount())
	}
	if err := m.Recycle(b); err == nil {
		t.Fatal("recycling a StateBad block must error")
	}
}

func TestEraseFailureRetiresInPlace(t *testing.T) {
	dev := faultyDevice(t, fault.Profile{Seed: 1},
		fault.Event{Kind: fault.KindErase, Chip: -1, Block: -1})
	m := NewManager(dev, nil)
	total := dev.Geometry().TotalBlocks()
	b, _ := m.Alloc(RoleFull)
	m.MarkFull(b)
	// The drain succeeded, so Recycle reports success even though the
	// erase failed and the block left service.
	if err := m.Recycle(b); err != nil {
		t.Fatalf("Recycle after erase failure: %v", err)
	}
	if m.State(b) != StateBad || !m.Bad(b) || m.BadCount() != 1 {
		t.Fatalf("erase-failed block: state %v bad %v count %d", m.State(b), m.Bad(b), m.BadCount())
	}
	if m.FreeCount() != total-1 {
		t.Fatalf("free count %d after losing one block of %d", m.FreeCount(), total)
	}
	if dev.Counters().EraseFailures != 1 {
		t.Fatalf("device EraseFailures = %d, want 1", dev.Counters().EraseFailures)
	}
	// The next recycle of another block succeeds (the campaign is spent).
	b2, _ := m.Alloc(RoleFull)
	m.MarkFull(b2)
	if err := m.Recycle(b2); err != nil {
		t.Fatal(err)
	}
	if m.State(b2) != StateFree {
		t.Fatalf("clean recycle state = %v", m.State(b2))
	}
}

func TestFactoryBadBlocksExcludedFromPool(t *testing.T) {
	dev := faultyDevice(t, fault.Profile{Seed: 5, FactoryBadFrac: 0.3})
	m := NewManager(dev, nil)
	total := dev.Geometry().TotalBlocks()
	factory := 0
	for b := 0; b < total; b++ {
		id := nand.BlockID(b)
		if dev.FactoryBad(id) {
			factory++
			if m.State(id) != StateBad || !m.Bad(id) {
				t.Fatalf("factory-bad block %d not retired at birth", b)
			}
		}
	}
	if factory == 0 {
		t.Fatal("seed produced no factory-bad blocks; pick another seed")
	}
	if m.BadCount() != factory || m.FreeCount() != total-factory {
		t.Fatalf("bad %d free %d, want %d and %d", m.BadCount(), m.FreeCount(), factory, total-factory)
	}
	for {
		b, ok := m.Alloc(RoleFull)
		if !ok {
			break
		}
		if dev.FactoryBad(b) {
			t.Fatalf("allocated factory-bad block %d", b)
		}
	}
}

func TestCapacityFloorReadOnly(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	total := dev.Geometry().TotalBlocks()
	m.Retire(nand.BlockID(0))
	if m.ReadOnly() {
		t.Fatal("read-only with no floor configured")
	}
	m.SetCapacityFloor(0, total-1)
	if m.ReadOnly() {
		t.Fatalf("read-only with usable %d at floor %d", m.Usable(), total-1)
	}
	m.Retire(nand.BlockID(1))
	if !m.ReadOnly() {
		t.Fatalf("not read-only with usable %d below floor %d", m.Usable(), total-1)
	}
}
