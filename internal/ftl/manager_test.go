package ftl

import (
	"math"
	"strings"
	"testing"

	"espftl/internal/lifetime"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

func testDevice(t *testing.T) *nand.Device {
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
	d, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestManagerAllocAll(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	total := dev.Geometry().TotalBlocks()
	if m.FreeCount() != total {
		t.Fatalf("FreeCount = %d, want %d", m.FreeCount(), total)
	}
	seen := make(map[nand.BlockID]bool)
	for i := 0; i < total; i++ {
		b, ok := m.Alloc(RoleFull)
		if !ok {
			t.Fatalf("Alloc %d failed", i)
		}
		if seen[b] {
			t.Fatalf("block %d allocated twice", b)
		}
		seen[b] = true
		if m.State(b) != StateOpen || m.Role(b) != RoleFull {
			t.Fatalf("block %d state/role = %v/%v", b, m.State(b), m.Role(b))
		}
	}
	if _, ok := m.Alloc(RoleFull); ok {
		t.Fatal("Alloc succeeded on empty pool")
	}
}

func TestManagerLifecycle(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	b, _ := m.Alloc(RoleSub)
	m.AddValid(b, 3)
	m.MarkFull(b)
	if m.State(b) != StateFull {
		t.Fatal("MarkFull did not transition")
	}
	if err := m.Recycle(b); err == nil {
		t.Fatal("Recycle accepted block with valid data")
	}
	m.AddValid(b, -3)
	if err := m.Recycle(b); err != nil {
		t.Fatalf("Recycle: %v", err)
	}
	if m.State(b) != StateFree || m.Role(b) != RoleNone {
		t.Fatal("Recycle did not reset meta")
	}
	if dev.EraseCount(b) != 1 {
		t.Fatalf("EraseCount = %d, want 1", dev.EraseCount(b))
	}
	if err := m.Recycle(b); err == nil || !strings.Contains(err.Error(), "free") {
		t.Fatalf("double recycle err = %v", err)
	}
}

// Recycle erases at the manager's erase policy's depth for the block's
// accumulated effective wear: the nil default is FixedDeep (always full
// depth), and AERO erases a fresh block shallow but a block at its rated
// life at full depth.
func TestRecycleErasesAtPolicyDepth(t *testing.T) {
	recycle := func(m *Manager, dev *nand.Device, eraseCount int) nand.BlockID {
		t.Helper()
		b, _ := m.Alloc(RoleFull)
		if eraseCount > 0 {
			dev.SetEraseCount(b, eraseCount)
		}
		m.MarkFull(b)
		if err := m.Recycle(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	dev := testDevice(t)
	if b := recycle(NewManager(dev, nil), dev, 0); dev.LastEraseDepth(b) != nand.DepthFull {
		t.Fatalf("default policy erased at %v, want full depth", dev.LastEraseDepth(b))
	}

	dev = testDevice(t)
	aero := lifetime.NewAERO()
	m := NewManager(dev, aero)
	fresh := aero.Depth(0)
	if fresh >= nand.DepthFull {
		t.Fatalf("AERO picks %v for a fresh block; the check needs a shallow depth", fresh)
	}
	if b := recycle(m, dev, 0); dev.LastEraseDepth(b) != fresh {
		t.Fatalf("fresh block erased at %v, policy says %v", dev.LastEraseDepth(b), fresh)
	}
	if b := recycle(m, dev, nand.RatedPE); dev.LastEraseDepth(b) != nand.DepthFull || aero.Depth(nand.RatedPE) != nand.DepthFull {
		t.Fatalf("block at rated wear erased at %v, want full depth", dev.LastEraseDepth(b))
	}
}

func TestManagerWearAwareAlloc(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	// Cycle block X a few times to wear it.
	x, _ := m.Alloc(RoleFull)
	for i := 0; i < 5; i++ {
		m.MarkFull(x)
		if err := m.Recycle(x); err != nil {
			t.Fatal(err)
		}
		got, _ := m.Alloc(RoleFull)
		if i < 4 && got == x {
			t.Fatalf("wear-aware alloc returned worn block %d while fresh blocks exist", x)
		}
		// Keep cycling whatever we got.
		x = got
	}
	if w := m.WearDist(); w.EraseMax-w.EraseMin > 1 {
		t.Fatalf("wear spread [%d,%d] too wide under wear-aware allocation", w.EraseMin, w.EraseMax)
	}
}

// TotalValid counts valid units by role: blocks of another role do not add.
func TestManagerCountByRoleAndTotalValid(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	a, _ := m.Alloc(RoleFull)
	b, _ := m.Alloc(RoleSub)
	c, _ := m.Alloc(RoleSub)
	m.AddValid(a, 4)
	m.AddValid(b, 2)
	m.AddValid(c, 1)
	if got := m.TotalValid(RoleSub); got != 3 {
		t.Fatalf("TotalValid(sub) = %d, want 3", got)
	}
	if got := m.TotalValid(RoleFull); got != 4 {
		t.Fatalf("TotalValid(full) = %d, want 4", got)
	}
}

func TestManagerAddValidNegativePanics(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	b, _ := m.Alloc(RoleFull)
	defer func() {
		if recover() == nil {
			t.Fatal("negative valid count did not panic")
		}
	}()
	m.AddValid(b, -1)
}

func TestManagerMarkFullWrongStatePanics(t *testing.T) {
	dev := testDevice(t)
	m := NewManager(dev, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("MarkFull on free block did not panic")
		}
	}()
	m.MarkFull(nand.BlockID(0))
}

func TestRoleString(t *testing.T) {
	if RoleNone.String() != "none" || RoleFull.String() != "full" || RoleSub.String() != "sub" {
		t.Fatal("role names wrong")
	}
	if !strings.Contains(Role(9).String(), "9") {
		t.Fatal("unknown role not reported")
	}
}

func TestVersions(t *testing.T) {
	v := NewVersions(10)
	if v.Size() != 10 {
		t.Fatalf("Size = %d", v.Size())
	}
	if v.Current(3) != 0 || v.SmallOrigin(3) {
		t.Fatal("fresh sector not at version 0")
	}
	if got := v.Bump(3, true); got != 1 {
		t.Fatalf("Bump = %d, want 1", got)
	}
	if !v.SmallOrigin(3) {
		t.Fatal("small origin not recorded")
	}
	if got := v.Bump(3, false); got != 2 {
		t.Fatalf("Bump = %d, want 2", got)
	}
	if v.SmallOrigin(3) {
		t.Fatal("origin not overwritten by large write")
	}
	v.Clear(3)
	if v.Current(3) != 0 || v.SmallOrigin(3) {
		t.Fatal("Clear did not reset")
	}
	if err := v.CheckRange(8, 2); err != nil {
		t.Fatalf("CheckRange valid: %v", err)
	}
	for _, c := range []struct{ lsn, n int64 }{{-1, 1}, {0, 0}, {9, 2}, {10, 1}, {math.MaxInt64, 4}} {
		if err := v.CheckRange(c.lsn, int(c.n)); err == nil {
			t.Errorf("CheckRange(%d,%d) accepted", c.lsn, c.n)
		}
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{
		SmallHostBytes:     4096,
		SmallFlashBytes:    16384,
		HostSectorsWritten: 10,
		SectorBytes:        4096,
	}
	s.Device.BytesWritten = 81920
	if got := s.AvgRequestWAF(); got != 4.0 {
		t.Fatalf("AvgRequestWAF = %v, want 4", got)
	}
	if got := s.OverallWAF(); got != 2.0 {
		t.Fatalf("OverallWAF = %v, want 2", got)
	}
	var zero Stats
	if zero.AvgRequestWAF() != 0 || zero.OverallWAF() != 0 {
		t.Fatal("zero stats not safe")
	}
	if !strings.Contains(s.String(), "reqWAF=4.000") {
		t.Fatalf("String = %q", s.String())
	}
}
