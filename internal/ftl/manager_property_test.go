package ftl

import (
	"fmt"
	"testing"
	"testing/quick"

	"espftl/internal/gc"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// scanOrderView is the reference for the order the manager's index keeps:
// the same candidates a GCView offers (full blocks of one role, minus the
// excluded one), but each First/Next found by walking every block of the
// device through the per-block accessors — the scan the index replaced.
type scanOrderView struct {
	gc.View // the per-block inputs (Valid, LastInvalidate, ...) are shared
	m       *Manager
	role    Role
	exclude func(nand.BlockID) bool
}

func (v scanOrderView) after(valid int, from nand.BlockID) (nand.BlockID, bool) {
	best, found := nand.BlockID(0), false
	for i := 0; i < v.m.dev.Geometry().TotalBlocks(); i++ {
		b := nand.BlockID(i)
		if v.m.State(b) != StateFull || v.m.Role(b) != v.role || (v.exclude != nil && v.exclude(b)) {
			continue
		}
		if bv := v.m.Valid(b); bv < valid || (bv == valid && b < from) {
			continue
		}
		if !found || v.m.Valid(b) < v.m.Valid(best) {
			best, found = b, true
		}
	}
	return best, found
}

func (v scanOrderView) First() (nand.BlockID, bool) { return v.after(0, 0) }
func (v scanOrderView) Next(b nand.BlockID) (nand.BlockID, bool) {
	return v.after(v.m.Valid(b), b+1)
}

// indexMatchesScan checks that, for both roles and with and without an
// excluded in-flight block, the index-backed view walks the same block
// sequence as the scan and every policy picks the same victim from both.
func indexMatchesScan(m *Manager, units int) error {
	policies := []gc.Policy{gc.Greedy{}, gc.CostBenefit{}, gc.WindowedGreedy{}}
	for _, role := range []Role{RoleFull, RoleSub} {
		var exclude func(nand.BlockID) bool
		for pass := 0; pass < 2; pass++ {
			view := m.GCView(role, units, exclude)
			ref := scanOrderView{View: view, m: m, role: role, exclude: exclude}
			b, ok := view.First()
			rb, rok := ref.First()
			for steps := 0; ok || rok; steps++ {
				if ok != rok || b != rb || steps > len(m.meta) {
					return fmt.Errorf("%v view (pass %d) step %d: index walks to %d ok=%v, scan to %d ok=%v", role, pass, steps, b, ok, rb, rok)
				}
				b, ok = view.Next(b)
				rb, rok = ref.Next(rb)
			}
			for _, p := range policies {
				got, ok := p.SelectVictim(view)
				want, wok := p.SelectVictim(ref)
				if ok != wok || got != want {
					return fmt.Errorf("%v view (pass %d): %s picks %d ok=%v from the index, %d ok=%v from the scan", role, pass, p.Name(), got, ok, want, wok)
				}
			}
			// Second pass: the block greedy just picked is in flight.
			inFlight, any := view.First()
			if !any {
				break
			}
			exclude = func(b nand.BlockID) bool { return b == inFlight }
		}
	}
	return nil
}

// The manager must behave like a simple reference model under any
// interleaving of allocations, seals, validity changes, retirements,
// recycles and mount-time adoptions: no block is ever handed out twice,
// FreeCount is exact, roles stick until recycle, per-chip allocation really
// lands on the requested chip while it has free blocks — and after every
// step the valid-ordered index is exact (CheckIndex) and yields the same
// candidate order and the same victim, policy by policy, as a scan of every
// block.
func TestManagerModelProperty(t *testing.T) {
	type op struct {
		Kind   uint8 // see the switch below
		Chip   uint8
		Sub    bool
		Amount uint8
	}
	type held struct {
		role  Role
		valid int
	}
	var failure error
	f := func(ops []op) bool {
		cfg := nand.DefaultConfig()
		cfg.Geometry = nand.Geometry{
			Channels:        2,
			ChipsPerChannel: 2,
			BlocksPerChip:   8,
			PagesPerBlock:   4,
			SubpagesPerPage: 4,
			SubpageBytes:    4096,
		}
		dev, err := nand.NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			return false
		}
		m := NewManager(dev, nil)
		g := dev.Geometry()
		total := g.TotalBlocks()
		units := g.SubpagesPerBlock()

		blocks := make(map[nand.BlockID]*held) // open or full blocks
		var order []nand.BlockID
		parked := 0 // retired blocks that left the pool for good

		for _, o := range ops {
			role := RoleFull
			if o.Sub {
				role = RoleSub
			}
			// Ages must differ for the age-aware policies to have a choice.
			dev.Clock().Advance(sim.Duration(o.Amount%4) * 1000)
			switch o.Kind % 8 {
			case 0, 1: // Alloc, AllocOnChip
				var b nand.BlockID
				var ok bool
				if o.Kind%8 == 1 {
					chip := int(o.Chip) % g.Chips()
					before := m.FreeOnChip(chip)
					b, ok = m.AllocOnChip(role, chip)
					if ok && before > 0 && g.ChipOf(b) != chip {
						return false // chip had free blocks but alloc strayed
					}
				} else {
					b, ok = m.Alloc(role)
				}
				if !ok {
					if len(blocks)+parked != total {
						return false // pool empty while model says otherwise
					}
					continue
				}
				if _, dup := blocks[b]; dup {
					return false // double allocation
				}
				if m.State(b) != StateOpen || m.Role(b) != role {
					return false
				}
				blocks[b] = &held{role: role}
				order = append(order, b)
			case 2: // drain the oldest block and recycle it
				if len(order) == 0 {
					continue
				}
				b := order[0]
				m.AddValid(b, -blocks[b].valid)
				if m.State(b) == StateOpen {
					m.MarkFull(b)
				}
				wasBad := m.Bad(b)
				if err := m.Recycle(b); err != nil {
					return false
				}
				order = order[1:]
				delete(blocks, b)
				if wasBad {
					parked++
					if m.State(b) != StateBad {
						return false
					}
				} else if m.State(b) != StateFree || m.Role(b) != RoleNone {
					return false
				}
			case 3: // AddValid +1
				if len(order) == 0 {
					continue
				}
				b := order[int(o.Amount)%len(order)]
				if blocks[b].valid == units {
					continue
				}
				m.AddValid(b, 1)
				blocks[b].valid++
			case 4: // AddValid -k
				if len(order) == 0 {
					continue
				}
				b := order[int(o.Amount)%len(order)]
				k := int(o.Chip) % (blocks[b].valid + 1)
				m.AddValid(b, -k)
				blocks[b].valid -= k
			case 5: // MarkFull
				if len(order) == 0 {
					continue
				}
				if b := order[int(o.Amount)%len(order)]; m.State(b) == StateOpen {
					m.MarkFull(b)
				}
			case 6: // Retire any block
				b := nand.BlockID(int(o.Amount) % total)
				if m.State(b) == StateFree {
					parked++
				}
				m.Retire(b)
				if _, live := blocks[b]; live && m.State(b) != StateFull {
					return false // a retired live block must await its drain as full
				}
			case 7: // Adopt a free block, as a mount does
				b := nand.BlockID(int(o.Amount) % total)
				if m.State(b) != StateFree {
					continue
				}
				v := int(o.Chip) % (units + 1)
				if err := m.Adopt(b, role, v); err != nil {
					return false
				}
				blocks[b] = &held{role: role, valid: v}
				order = append(order, b)
			}
			if m.FreeCount() != total-len(blocks)-parked {
				return false
			}
			if failure = m.CheckIndex(); failure != nil {
				return false
			}
			if failure = indexMatchesScan(m, units); failure != nil {
				return false
			}
		}
		// Model/impl agreement across the board.
		for b, h := range blocks {
			if m.Valid(b) != h.valid || m.Role(b) != h.role {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err, failure)
	}
}

// Wear-aware allocation preference: after uneven recycling, fresh blocks
// are preferred over worn ones on every chip.
func TestManagerWearPreferenceProperty(t *testing.T) {
	f := func(wearSeed uint16) bool {
		cfg := nand.DefaultConfig()
		cfg.Geometry = nand.Geometry{
			Channels:        1,
			ChipsPerChannel: 1,
			BlocksPerChip:   8,
			PagesPerBlock:   4,
			SubpagesPerPage: 4,
			SubpageBytes:    4096,
		}
		dev, err := nand.NewDevice(cfg, sim.NewClock(0))
		if err != nil {
			return false
		}
		m := NewManager(dev, nil)
		rng := sim.NewRNG(uint64(wearSeed) + 1)
		// Wear some blocks by alloc/recycle cycling.
		for i := 0; i < 20; i++ {
			b, ok := m.Alloc(RoleFull)
			if !ok {
				return false
			}
			if rng.Bool(0.5) {
				m.MarkFull(b)
			}
			if err := m.Recycle(b); err != nil {
				return false
			}
		}
		// Drain the pool: erase counts must come out non-decreasing.
		prev := -1
		for {
			b, ok := m.Alloc(RoleFull)
			if !ok {
				break
			}
			e := dev.EraseCount(b)
			if e < prev {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
