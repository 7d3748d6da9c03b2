package ftl

import (
	"errors"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/gc"
	"espftl/internal/nand"
)

// nullOwner is a LogOwner that maps nothing: appended pages never become
// valid, so every sealed block is an empty victim.
type nullOwner struct{}

func (nullOwner) Refill() error                            { return nil }
func (nullOwner) Begin(nand.BlockID)                       {}
func (nullOwner) Work(nand.BlockID) (int, bool, error)     { return 0, true, nil }
func appendPadding(l *Log, st Stream) (nand.PageID, error) { return l.Append(st, l.Stamps()) }

// newTestLog builds the table's log: reserve 6 over testDevice (or a faulty
// twin when a fault script is given).
func newTestLog(t *testing.T, opts gc.Options, script []fault.Event) (*Log, *Manager, *nand.Device, *Stats) {
	t.Helper()
	dev := testDevice(t)
	if script != nil {
		dev = faultyDevice(t, fault.Profile{}, script...)
	}
	m := NewManager(dev, nil)
	stats := &Stats{}
	l, err := NewLog(dev, m, stats, LogConfig{Reserve: 6, GC: opts, UnitsPerBlock: dev.Geometry().PagesPerBlock, Tag: TagFull}, nullOwner{})
	if err != nil {
		t.Fatal(err)
	}
	return l, m, dev, stats
}

// starvePool seals four empty victims (one host stripe of full blocks) and
// then takes free blocks out from under the log until only three are left,
// half the reserve. It returns the blocks taken.
func starvePool(t *testing.T, l *Log, m *Manager, dev *nand.Device) []nand.BlockID {
	t.Helper()
	for i := 0; i < 4*dev.Geometry().PagesPerBlock+4; i++ {
		if _, err := appendPadding(l, StreamHost); err != nil {
			t.Fatal(err)
		}
	}
	var taken []nand.BlockID
	for m.FreeCount() > 3 {
		b, _ := m.Alloc(RoleSub)
		taken = append(taken, b)
	}
	return taken
}

// TestLogAppend is the white-box table for the shared page-append log:
// 4 chips x 4 blocks x 8 pages, reserve 6 (so the GC stripe is 2 wide).
func TestLogAppend(t *testing.T) {
	programFails := func(n int) []fault.Event {
		return []fault.Event{{Kind: fault.KindProgram, Chip: -1, Block: -1, Count: n}}
	}
	cases := []struct {
		name   string
		gc     gc.Options
		script []fault.Event
		run    func(t *testing.T, l *Log, m *Manager, dev *nand.Device, stats *Stats)
	}{
		{name: "host stripe rotates across chips", run: func(t *testing.T, l *Log, m *Manager, dev *nand.Device, _ *Stats) {
			g := dev.Geometry()
			var first nand.BlockID
			for i := 0; i < 5; i++ {
				p, err := appendPadding(l, StreamHost)
				if err != nil {
					t.Fatal(err)
				}
				b := g.BlockOfPage(p)
				if i == 0 {
					first = b
				}
				if got := g.ChipOf(b); got != i%4 {
					t.Errorf("append %d landed on chip %d, want %d", i, got, i%4)
				}
				if i == 4 && (b != first || g.PageIndex(p) != 1) {
					t.Errorf("fifth append at block %d page %d, want block %d page 1", b, g.PageIndex(p), first)
				}
			}
		}},
		{name: "rollover seals the block and opens the next on the same chip", run: func(t *testing.T, l *Log, m *Manager, dev *nand.Device, _ *Stats) {
			g := dev.Geometry()
			first, _ := appendPadding(l, StreamHost)
			for i := 1; i < 4*g.PagesPerBlock; i++ {
				if _, err := appendPadding(l, StreamHost); err != nil {
					t.Fatal(err)
				}
			}
			if st := m.State(g.BlockOfPage(first)); st != StateOpen {
				t.Fatalf("filled block in state %d before the stripe comes back to it", st)
			}
			next, err := appendPadding(l, StreamHost)
			if err != nil {
				t.Fatal(err)
			}
			if st := m.State(g.BlockOfPage(first)); st != StateFull {
				t.Errorf("filled block in state %d after rollover, want full", st)
			}
			if nb := g.BlockOfPage(next); nb == g.BlockOfPage(first) || g.ChipOf(nb) != 0 || g.PageIndex(next) != 0 {
				t.Errorf("rollover landed at block %d (chip %d) page %d", nb, g.ChipOf(nb), g.PageIndex(next))
			}
		}},
		{name: "budgeted GC refill borrows at the margin", gc: gc.Options{StepPages: 2}, run: func(t *testing.T, l *Log, m *Manager, dev *nand.Device, _ *Stats) {
			g := dev.Geometry()
			for m.FreeCount() > 5 {
				m.Alloc(RoleSub)
			}
			p0, err := appendPadding(l, StreamGC)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := appendPadding(l, StreamGC)
			if err != nil {
				t.Fatal(err)
			}
			if m.FreeCount() != 4 || g.BlockOfPage(p1) != g.BlockOfPage(p0) {
				t.Errorf("second GC point took block %d with %d free; want it to borrow block %d and leave 4 free",
					g.BlockOfPage(p1), m.FreeCount(), g.BlockOfPage(p0))
			}
		}},
		{name: "whole-block GC refill allocates at the margin", run: func(t *testing.T, l *Log, m *Manager, dev *nand.Device, _ *Stats) {
			g := dev.Geometry()
			for m.FreeCount() > 5 {
				m.Alloc(RoleSub)
			}
			p0, _ := appendPadding(l, StreamGC)
			p1, err := appendPadding(l, StreamGC)
			if err != nil {
				t.Fatal(err)
			}
			if m.FreeCount() != 3 || g.BlockOfPage(p1) == g.BlockOfPage(p0) {
				t.Errorf("second GC point reused block %d (%d free); only a budgeted collector borrows", g.BlockOfPage(p0), m.FreeCount())
			}
		}},
		{name: "replay retires the failed block and lands on a fresh one", script: programFails(1), run: func(t *testing.T, l *Log, m *Manager, dev *nand.Device, stats *Stats) {
			g := dev.Geometry()
			free := m.FreeCount()
			p, err := appendPadding(l, StreamHost)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ProgramFailMoves != 1 || m.BadCount() != 1 || m.FreeCount() != free-2 {
				t.Fatalf("moves %d, bad %d, free %d -> %d", stats.ProgramFailMoves, m.BadCount(), free, m.FreeCount())
			}
			landed := g.BlockOfPage(p)
			if m.Bad(landed) || g.PageIndex(p) != 0 {
				t.Errorf("replay landed on block %d (bad %v) page %d", landed, m.Bad(landed), g.PageIndex(p))
			}
			for b := 0; b < g.TotalBlocks(); b++ {
				if id := nand.BlockID(b); m.Bad(id) && m.State(id) != StateFull {
					t.Errorf("failed block %d in state %d, want full (awaiting its drain)", id, m.State(id))
				}
			}
			// The stripe slot now points at the fresh block.
			for i := 1; i < 4; i++ {
				appendPadding(l, StreamHost)
			}
			if p2, _ := appendPadding(l, StreamHost); g.BlockOfPage(p2) != landed {
				t.Errorf("stripe slot still on block %d, want %d", g.BlockOfPage(p2), landed)
			}
		}},
		{name: "replay bound surfaces the error", script: programFails(MaxProgramReplays + 1), run: func(t *testing.T, l *Log, m *Manager, _ *nand.Device, stats *Stats) {
			_, err := appendPadding(l, StreamHost)
			if !errors.Is(err, nand.ErrProgramFail) {
				t.Fatalf("err = %v, want ErrProgramFail", err)
			}
			// Every failed block retires, the last one included; only
			// the first MaxProgramReplays failures replay.
			if stats.ProgramFailMoves != MaxProgramReplays || m.BadCount() != MaxProgramReplays+1 {
				t.Errorf("moves %d, bad %d, want %d and %d", stats.ProgramFailMoves, m.BadCount(), MaxProgramReplays, MaxProgramReplays+1)
			}
		}},
		{name: "one gate attempt frees at most one block and reports the pool", run: func(t *testing.T, l *Log, m *Manager, dev *nand.Device, stats *Stats) {
			taken := starvePool(t, l, m, dev)
			lent := false
			l.cfg.Reclaim = func() bool {
				if lent {
					return false
				}
				lent = true
				return m.Recycle(taken[0]) == nil
			}
			for i, want := range []struct {
				free     int
				drains   int64
				lent, ok bool
			}{
				{4, 0, true, false}, // the reclaim hook goes first and is the whole attempt
				{5, 1, true, false}, // nothing to reclaim: one whole victim
				{6, 2, true, false}, // at the reserve is not above it
				{7, 3, true, true},
				{7, 3, true, true}, // above the floor an attempt touches nothing
			} {
				ok, err := l.TryAdmit()
				if err != nil {
					t.Fatal(err)
				}
				if ok != want.ok || m.FreeCount() != want.free || stats.GCInvocations != want.drains || lent != want.lent {
					t.Fatalf("attempt %d: ok=%v free=%d drains=%d reclaimed=%v, want %+v", i, ok, m.FreeCount(), stats.GCInvocations, lent, want)
				}
			}
		}},
		{name: "the gate loop equals repeated attempts", gc: gc.Options{StepPages: 2}, run: func(t *testing.T, l *Log, m *Manager, dev *nand.Device, stats *Stats) {
			starvePool(t, l, m, dev)
			if err := l.Admit(); err != nil {
				t.Fatal(err)
			}
			l2, m2, dev2, stats2 := newTestLog(t, gc.Options{StepPages: 2}, nil)
			starvePool(t, l2, m2, dev2)
			attempts := 0
			for ok := false; !ok; attempts++ {
				var err error
				if ok, err = l2.TryAdmit(); err != nil {
					t.Fatal(err)
				}
			}
			// Reserve 6 is under the budgeted hard floor, so the floor is 6.
			if attempts != 4 || m.FreeCount() != 7 || m2.FreeCount() != 7 || stats.GCInvocations != stats2.GCInvocations {
				t.Fatalf("loop: %d free after %d drains; %d attempts: %d free after %d drains",
					m.FreeCount(), stats.GCInvocations, attempts, m2.FreeCount(), stats2.GCInvocations)
			}
			for b := 0; b < dev.Geometry().TotalBlocks(); b++ {
				id := nand.BlockID(b)
				if m.State(id) != m2.State(id) || dev.EraseCount(id) != dev2.EraseCount(id) {
					t.Errorf("block %d: loop left state %d erases %d, attempts %d / %d", id, m.State(id), dev.EraseCount(id), m2.State(id), dev2.EraseCount(id))
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l, m, dev, stats := newTestLog(t, c.gc, c.script)
			c.run(t, l, m, dev, stats)
		})
	}
}
