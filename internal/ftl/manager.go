package ftl

import (
	"errors"
	"fmt"

	"espftl/internal/gc"
	"espftl/internal/lifetime"
	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// Role is the dynamic purpose of a block. In subFTL the role is "decided
// at the program time, not at the design time" (paper §4.2): any free
// block can become a subpage-region or full-page-region block when
// allocated, which is also how region wear imbalance is leveled.
type Role uint8

// Block roles.
const (
	RoleNone Role = iota // free, unassigned
	RoleFull             // full-page region (or the only region in cgm/fgm)
	RoleSub              // subpage region
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleFull:
		return "full"
	case RoleSub:
		return "sub"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// BlockState is the lifecycle state of a block.
type BlockState uint8

// Block lifecycle states.
const (
	StateFree BlockState = iota // erased, in the free pool
	StateOpen                   // allocated, still being filled
	StateFull                   // filled; GC candidate
	StateBad                    // retired (factory or grown bad); never allocated again
)

// blockMeta is the manager's per-block record.
type blockMeta struct {
	state BlockState
	role  Role
	// valid counts live logical units in the block; the unit is the
	// owning FTL's choice (sectors, pages or subpages) but must be used
	// consistently.
	valid int
	// bad marks a retired block. A bad block that still holds valid data
	// stays in StateFull until GC drains it; once empty it Recycles into
	// StateBad instead of returning to the pool.
	bad bool
	// lastInval is the virtual time the block last lost a valid unit (or
	// was sealed full, whichever came later): the age input of the
	// cost-benefit and windowed GC policies. Never consulted for free or
	// open blocks.
	lastInval sim.Time
}

// Manager owns block lifecycle for an FTL: a wear-aware free pool kept as
// one min-heap per chip (least worn block allocated first — dynamic wear
// leveling — while allocation can target a chip, which is how the FTLs'
// append stripes spread load over every channel and way), per-block
// validity accounting, and the valid-ordered block index GC policies and
// subFTL's round-advance policy select from.
type Manager struct {
	dev  *nand.Device
	meta []blockMeta
	// index orders the open and full blocks by (valid, BlockID) per (role,
	// state) class. Every write of blockMeta.state or .valid goes through
	// unindex/reindex, so it is exact at all times (CheckIndex).
	index validIndex
	// free[chip] is a binary min-heap of that chip's free blocks keyed by
	// erase count.
	free  [][]nand.BlockID
	total int
	// rr rotates untargeted allocations across chips so wear ties do not
	// pile work onto chip 0.
	rr int
	// bad counts retired blocks (factory plus grown); floor, when set, is
	// the usable-block count below which the manager reports read-only
	// degradation.
	bad   int
	floor int
	// erase chooses the depth of every Recycle from the block's effective
	// wear (see internal/lifetime).
	erase lifetime.ErasePolicy
}

// NewManager returns a manager over every block of the device, all free
// except those the device's fault model marks factory-bad. erase chooses
// the depth of every Recycle; nil is the paper's lifetime.FixedDeep.
func NewManager(dev *nand.Device, erase lifetime.ErasePolicy) *Manager {
	if erase == nil {
		erase = lifetime.FixedDeep{}
	}
	g := dev.Geometry()
	n := g.TotalBlocks()
	m := &Manager{
		dev:   dev,
		erase: erase,
		meta:  make([]blockMeta, n),
		index: newValidIndex(n, g.SubpagesPerBlock()),
		free:  make([][]nand.BlockID, g.Chips()),
	}
	for b := 0; b < n; b++ {
		id := nand.BlockID(b)
		if dev.FactoryBad(id) {
			m.meta[b] = blockMeta{state: StateBad, bad: true}
			m.bad++
			continue
		}
		chip := g.ChipOf(id)
		m.free[chip] = append(m.free[chip], id)
	}
	m.total = n - m.bad
	return m
}

func (m *Manager) less(a, b nand.BlockID) bool {
	ea, eb := m.dev.EraseCount(a), m.dev.EraseCount(b)
	if ea != eb {
		return ea < eb
	}
	return a < b
}

func (m *Manager) siftUp(chip, i int) {
	h := m.free[chip]
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (m *Manager) siftDown(chip, i int) {
	h := m.free[chip]
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && m.less(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && m.less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// FreeCount returns the number of blocks in the free pool.
func (m *Manager) FreeCount() int { return m.total }

// FreeOnChip returns the free-block count of one chip.
func (m *Manager) FreeOnChip(chip int) int { return len(m.free[chip]) }

func (m *Manager) popChip(chip int, role Role) (nand.BlockID, bool) {
	h := m.free[chip]
	if len(h) == 0 {
		return 0, false
	}
	b := h[0]
	last := len(h) - 1
	h[0] = h[last]
	m.free[chip] = h[:last]
	if last > 0 {
		m.siftDown(chip, 0)
	}
	m.total--
	m.meta[b] = blockMeta{state: StateOpen, role: role}
	m.reindex(b)
	return b, true
}

// Alloc pops the least-worn free block device-wide and opens it with the
// given role; wear ties rotate across chips. The second result is false
// when the pool is empty.
func (m *Manager) Alloc(role Role) (nand.BlockID, bool) {
	best := -1
	n := len(m.free)
	chip := m.rr
	for i := 0; i < n; i++ {
		if len(m.free[chip]) > 0 && (best < 0 || m.less(m.free[chip][0], m.free[best][0])) {
			best = chip
		}
		if chip++; chip == n {
			chip = 0
		}
	}
	if m.rr++; m.rr == n {
		m.rr = 0
	}
	if best < 0 {
		return 0, false
	}
	return m.popChip(best, role)
}

// AllocOnChip pops the least-worn free block of the given chip, falling
// back to any chip when that one is exhausted. Append stripes use it to
// keep one open block per chip.
func (m *Manager) AllocOnChip(role Role, chip int) (nand.BlockID, bool) {
	if chip >= 0 && chip < len(m.free) {
		if b, ok := m.popChip(chip, role); ok {
			return b, true
		}
	}
	return m.Alloc(role)
}

// MarkFull transitions an open block to the full (GC-candidate) state.
func (m *Manager) MarkFull(b nand.BlockID) {
	if m.meta[b].state != StateOpen {
		panic(fmt.Sprintf("ftl: MarkFull on block %d in state %d", b, m.meta[b].state))
	}
	m.unindex(b)
	m.meta[b].state = StateFull
	m.meta[b].lastInval = m.dev.Clock().Now()
	m.reindex(b)
}

// Adopt installs a scanned block's state at mount time: the block leaves
// the free pool and becomes a full (GC-eligible) block of the given role
// with the given valid count. Recovery never reopens blocks — a block that
// was open at the crash is adopted as full and its unwritten pages are
// reclaimed by the next GC cycle — so the invariant "append points only
// ever target blocks the current epoch opened" survives the mount.
func (m *Manager) Adopt(b nand.BlockID, role Role, valid int) error {
	if m.meta[b].state != StateFree {
		return fmt.Errorf("ftl: adopting block %d in state %d", b, m.meta[b].state)
	}
	m.removeFree(b)
	m.meta[b] = blockMeta{state: StateFull, role: role, valid: valid, lastInval: m.dev.Clock().Now()}
	m.reindex(b)
	return nil
}

// Recycle erases a block (which must hold no valid units) and returns it
// to the free pool. A block already retired — or whose erase fails, which
// retires it — transitions to StateBad instead: the caller's drain
// succeeded, there is just no block to reuse.
func (m *Manager) Recycle(b nand.BlockID) error {
	if m.meta[b].valid != 0 {
		return fmt.Errorf("ftl: recycling block %d with %d valid units", b, m.meta[b].valid)
	}
	switch m.meta[b].state {
	case StateFree:
		return fmt.Errorf("ftl: recycling free block %d", b)
	case StateBad:
		return fmt.Errorf("ftl: recycling retired block %d", b)
	}
	if m.meta[b].bad {
		m.unindex(b)
		m.meta[b].state = StateBad
		return nil
	}
	if _, err := m.dev.EraseAt(b, m.erase.Depth(m.dev.EffectiveWear(b))); err != nil {
		if errors.Is(err, nand.ErrEraseFail) {
			m.unindex(b)
			m.meta[b].bad = true
			m.meta[b].state = StateBad
			m.bad++
			return nil
		}
		return err
	}
	m.unindex(b)
	m.meta[b] = blockMeta{state: StateFree}
	chip := m.dev.Geometry().ChipOf(b)
	m.free[chip] = append(m.free[chip], b)
	m.siftUp(chip, len(m.free[chip])-1)
	m.total++
	return nil
}

// Retire marks b grown-bad: it leaves the free pool permanently and is
// never allocated again. An open block transitions to full so GC can
// drain any live data it still holds; once drained, Recycle parks it in
// StateBad.
func (m *Manager) Retire(b nand.BlockID) {
	mt := &m.meta[b]
	if mt.bad {
		return
	}
	mt.bad = true
	m.bad++
	switch mt.state {
	case StateFree:
		m.removeFree(b)
		mt.state = StateBad
	case StateOpen:
		m.unindex(b)
		mt.state = StateFull
		m.reindex(b)
	}
}

// removeFree deletes b from its chip's free heap.
func (m *Manager) removeFree(b nand.BlockID) {
	chip := m.dev.Geometry().ChipOf(b)
	h := m.free[chip]
	for i := range h {
		if h[i] != b {
			continue
		}
		last := len(h) - 1
		h[i] = h[last]
		m.free[chip] = h[:last]
		if i < last {
			m.siftDown(chip, i)
			m.siftUp(chip, i)
		}
		m.total--
		return
	}
}

// BadCount returns how many blocks are retired (factory plus grown bad).
func (m *Manager) BadCount() int { return m.bad }

// Bad reports whether b is retired or pending retirement.
func (m *Manager) Bad(b nand.BlockID) bool { return m.meta[b].bad }

// SetCapacityFloor sets the usable-block count below which ReadOnly
// reports degradation: the blocks logicalSectors of data fill plus keep,
// the blocks the FTL needs beside them to go on writing (its GC reserve
// and everything it holds open). A device smaller than that has no spare
// to lose — its first bad block degrades it. A zero floor (the default)
// disables the check.
func (m *Manager) SetCapacityFloor(logicalSectors int64, keep int) {
	perBlock := int64(m.dev.Geometry().SubpagesPerBlock())
	m.floor = min(int((logicalSectors+perBlock-1)/perBlock)+keep, len(m.meta))
}

// Usable returns the number of non-retired blocks.
func (m *Manager) Usable() int { return len(m.meta) - m.bad }

// ReadOnly reports whether bad blocks have eaten the spare capacity down
// to the configured floor. FTLs check it on the write path and degrade to
// read-only service instead of wedging inside GC.
func (m *Manager) ReadOnly() bool { return m.floor > 0 && m.Usable() < m.floor }

// State, Role and Valid expose per-block records.
func (m *Manager) State(b nand.BlockID) BlockState { return m.meta[b].state }
func (m *Manager) Role(b nand.BlockID) Role        { return m.meta[b].role }
func (m *Manager) Valid(b nand.BlockID) int        { return m.meta[b].valid }

// AddValid adjusts the valid-unit count of a block. Invalidations
// (negative deltas) refresh the block's last-invalidate timestamp, the
// age signal the cost-benefit and windowed policies select on.
func (m *Manager) AddValid(b nand.BlockID, delta int) {
	v := m.meta[b].valid + delta
	if v < 0 {
		panic(fmt.Sprintf("ftl: block %d valid count went negative", b))
	}
	if v >= m.index.buckets {
		panic(fmt.Sprintf("ftl: block %d valid count %d exceeds its %d subpages", b, v, m.index.buckets-1))
	}
	m.unindex(b)
	m.meta[b].valid = v
	m.reindex(b)
	if delta < 0 {
		m.meta[b].lastInval = m.dev.Clock().Now()
	}
}

// WearDist snapshots the device-wide block wear distribution: erase
// counts through an exact integer histogram, effective wear through a
// deci-wear histogram (0.1 deep-erase-equivalent resolution for the p99;
// min/max/mean are exact). Called from Stats(), not on any hot path.
func (m *Manager) WearDist() WearDist {
	n := m.dev.Geometry().TotalBlocks()
	out := WearDist{Blocks: n}
	if n == 0 {
		return out
	}
	eh := metrics.NewIntHistogram(256)
	wh := metrics.NewIntHistogram(1024)
	out.EraseMin = m.dev.EraseCount(0)
	out.WearMin = m.dev.EffectiveWear(0)
	wearSum := 0.0
	for b := 0; b < n; b++ {
		id := nand.BlockID(b)
		e := m.dev.EraseCount(id)
		w := m.dev.EffectiveWear(id)
		eh.Record(e)
		wh.Record(int(w*10 + 0.5))
		if e < out.EraseMin {
			out.EraseMin = e
		}
		if w < out.WearMin {
			out.WearMin = w
		}
		if w > out.WearMax {
			out.WearMax = w
		}
		wearSum += w
	}
	out.EraseMax = eh.Max()
	out.EraseMean = eh.Mean()
	out.EraseP99 = eh.Quantile(0.99)
	out.WearMean = wearSum / float64(n)
	out.WearP99 = float64(wh.Quantile(0.99)) / 10
	return out
}

// TotalValid sums valid units over all blocks of a role.
func (m *Manager) TotalValid(role Role) int {
	sum := 0
	for b := range m.meta {
		if m.meta[b].role == role && m.meta[b].state != StateFree {
			sum += m.meta[b].valid
		}
	}
	return sum
}

// unindex and reindex bracket every write of a block's state or valid
// count: the block leaves the class and bucket its old record names and
// enters the ones its new record names. Free and bad blocks are in no class.
func (m *Manager) unindex(b nand.BlockID) {
	if mt := &m.meta[b]; mt.state == StateOpen || mt.state == StateFull {
		m.index.remove(indexClass(mt.role, mt.state), mt.valid, b)
	}
}

func (m *Manager) reindex(b nand.BlockID) {
	if mt := &m.meta[b]; mt.state == StateOpen || mt.state == StateFull {
		m.index.insert(indexClass(mt.role, mt.state), mt.valid, b)
	}
}

// Seek returns the first block at or after position (valid, from) among the
// blocks of one role in one state (StateOpen or StateFull), taken in
// ascending (valid count, BlockID) order. Positions are values, not
// cursors, so a walk may change block states between two Seeks.
func (m *Manager) Seek(role Role, state BlockState, valid int, from nand.BlockID) (nand.BlockID, bool) {
	return m.index.seek(indexClass(role, state), valid, from)
}

// First and Next walk one class in (valid count, BlockID) order: First is
// Seek from the start, Next the successor of a block b of the class.
func (m *Manager) First(role Role, state BlockState) (nand.BlockID, bool) {
	return m.Seek(role, state, 0, 0)
}

func (m *Manager) Next(role Role, state BlockState, b nand.BlockID) (nand.BlockID, bool) {
	return m.Seek(role, state, m.meta[b].valid, b+1)
}

// CheckIndex verifies the valid-ordered index against the per-block
// records: every open or full block sits in the bitmap its role, state and
// valid count name, the bitmaps hold nothing else (so free and bad blocks
// are in no class and no block is in two), and the per-bitmap counts and
// the non-empty summary that Seek navigates by agree with the bitmaps.
func (m *Manager) CheckIndex() error {
	want := 0
	for b := range m.meta {
		mt := &m.meta[b]
		if mt.state != StateOpen && mt.state != StateFull {
			continue
		}
		want++
		if !m.index.has(indexClass(mt.role, mt.state), mt.valid, nand.BlockID(b)) {
			return fmt.Errorf("ftl: block %d (role %v, state %d, valid %d) is missing from its index bitmap", b, mt.role, mt.state, mt.valid)
		}
	}
	got, err := m.index.population()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("ftl: index holds %d entries, %d blocks are open or full", got, want)
	}
	return nil
}

// gcView adapts the manager's bookkeeping to the policy engine's selection
// view: candidates are the full blocks of one role in the index's (valid,
// BlockID) order, minus whatever the exclude hook (the collector's
// in-flight check) vetoes.
type gcView struct {
	m       *Manager
	role    Role
	units   int
	exclude func(nand.BlockID) bool
}

// GCView builds a gc.View over the manager's blocks of one role.
// unitsPerBlock is the valid-count denominator in the owning FTL's
// units; exclude (optional) vetoes individual candidates — every FTL
// passes its collector's InFlight so the block being drained can never
// be selected again.
func (m *Manager) GCView(role Role, unitsPerBlock int, exclude func(nand.BlockID) bool) gc.View {
	return &gcView{m: m, role: role, units: unitsPerBlock, exclude: exclude}
}

func (v *gcView) First() (nand.BlockID, bool) { return v.seek(0, 0) }

func (v *gcView) Next(b nand.BlockID) (nand.BlockID, bool) {
	return v.seek(v.m.meta[b].valid, b+1)
}

func (v *gcView) seek(valid int, from nand.BlockID) (nand.BlockID, bool) {
	for {
		b, ok := v.m.Seek(v.role, StateFull, valid, from)
		if !ok || v.exclude == nil || !v.exclude(b) {
			return b, ok
		}
		valid, from = v.m.meta[b].valid, b+1
	}
}

func (v *gcView) Valid(b nand.BlockID) int               { return v.m.meta[b].valid }
func (v *gcView) UnitsPerBlock() int                     { return v.units }
func (v *gcView) LastInvalidate(b nand.BlockID) sim.Time { return v.m.meta[b].lastInval }
func (v *gcView) Now() sim.Time                          { return v.m.dev.Clock().Now() }
