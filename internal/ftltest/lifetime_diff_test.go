package ftltest

import (
	"fmt"
	"testing"

	"espftl/internal/core"
	"espftl/internal/ftl"
	"espftl/internal/ftl/cgm"
	"espftl/internal/ftl/fgm"
	"espftl/internal/lifetime"
	"espftl/internal/nand"
)

// lifetimeEnvs returns one CrashEnv per FTL with the lifetime subsystem's
// operating point wired through: the named erase-depth policy and the
// longevity-placement switch.
func lifetimeEnvs(policy string, placement bool) []struct {
	name string
	env  CrashEnv
} {
	const sectors = 512
	base := CrashEnv{Geometry: TinyGeometry(), Sectors: sectors, Seed: 42}
	resolve := func(*nand.Device) (lifetime.ErasePolicy, error) {
		return lifetime.NewErasePolicy(policy)
	}
	mk := func(factory func(dev *nand.Device) (ftl.FTL, error)) CrashEnv {
		e := base
		e.Factory = factory
		return e
	}
	return []struct {
		name string
		env  CrashEnv
	}{
		{"cgmFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			pol, err := resolve(dev)
			if err != nil {
				return nil, err
			}
			return cgm.New(dev, cgm.Config{LogicalSectors: sectors, GCReserveBlocks: 3, ErasePolicy: pol, Lifetime: placement})
		})},
		{"fgmFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			pol, err := resolve(dev)
			if err != nil {
				return nil, err
			}
			return fgm.New(dev, fgm.Config{LogicalSectors: sectors, GCReserveBlocks: 3, ErasePolicy: pol, Lifetime: placement})
		})},
		{"subFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			pol, err := resolve(dev)
			if err != nil {
				return nil, err
			}
			cfg := core.DefaultConfig(sectors)
			cfg.GCReserveBlocks = 3
			cfg.BufferSectors = 32
			cfg.ErasePolicy = pol
			cfg.Lifetime = placement
			return core.New(dev, cfg)
		})},
	}
}

// lifetimeDurableState mirrors durableState for the lifetime grid: replay,
// flush, model-check and read back everything, but require erases (so the
// depth policy actually fired) instead of GC steps.
func lifetimeDurableState(t *testing.T, env CrashEnv, script []CrashOp) []uint32 {
	t.Helper()
	dev, _ := env.NewDevice(t)
	f, err := env.Factory(dev)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	m := NewModel(env.Sectors)
	if crashed := replay(t, f, script, m); crashed {
		t.Fatal("unexpected power loss")
	}
	if err := f.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if dev.Counters().Erases == 0 {
		t.Fatal("script never erased a block — the erase-depth differential is vacuous")
	}
	state := make([]uint32, env.Sectors)
	for lsn := int64(0); lsn < env.Sectors; lsn++ {
		v := f.VersionOf(lsn)
		if !m.Acceptable(lsn, v) {
			t.Fatalf("lsn %d at version %d, acceptable %s", lsn, v, m.Describe(lsn))
		}
		if v > 0 {
			if err := f.Read(lsn, 1); err != nil {
				t.Fatalf("lsn %d (version %d) unreadable: %v", lsn, v, err)
			}
		}
		state[lsn] = v
	}
	return state
}

// TestLifetimeDifferential replays one scripted QD=1 FIFO workload per FTL
// under every lifetime operating point — no subsystem, adaptive erase
// alone, and adaptive erase plus longevity placement — and asserts they
// all reach the identical logical durable state. The subsystem moves
// erases in depth and writes in placement, never in outcome: every run is
// also model-checked and fully read back, so a shallow erase that cost
// real data or a steered write that landed wrong fails on its own.
func TestLifetimeDifferential(t *testing.T) {
	grid := []struct {
		policy    string
		placement bool
	}{
		{"", false}, // zero configuration: fixed-deep erases, size-routed placement
		{"fixed-deep", false},
		{"aero", false},
		{"aero", true},
		{"fixed-deep", true},
	}
	kinds := len(lifetimeEnvs("", false))
	for fi := 0; fi < kinds; fi++ {
		fi := fi
		name := lifetimeEnvs("", false)[fi].name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var base []uint32
			var baseDesc string
			for _, cell := range grid {
				c := lifetimeEnvs(cell.policy, cell.placement)[fi]
				desc := fmt.Sprintf("policy=%q placement=%v", cell.policy, cell.placement)
				// 600 ops overwrite the tiny device several times: every
				// cell recycles blocks (lifetimeDurableState asserts so).
				script := withTicks(MixedScript(c.env.Sectors, c.env.Geometry.SubpagesPerPage, 600, 13), 3)
				state := lifetimeDurableState(t, c.env, script)
				if base == nil {
					base, baseDesc = state, desc
					continue
				}
				for lsn := range state {
					if state[lsn] != base[lsn] {
						t.Fatalf("%s: lsn %d at version %d, but %s reached %d — durable state must be lifetime-invariant",
							desc, lsn, state[lsn], baseDesc, base[lsn])
					}
				}
			}
		})
	}
}

// TestSPOSweepShallowErase cuts power at every device-operation index of a
// script running with the AERO erase policy and longevity placement on
// all three FTLs. On a young device AERO picks shallow depths for nearly
// every erase, so many cuts land on (or right after) a shallow-erased
// block — the PR-3 recovery contract must hold there too: one OOB-only
// mount scan, model-acceptable versions, every live sector readable. The
// remount factory re-installs the same policy, so recovery itself runs
// over shallow-erased state.
func TestSPOSweepShallowErase(t *testing.T) {
	for _, c := range lifetimeEnvs("aero", true) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sectors, pageSecs := c.env.Sectors, c.env.Geometry.SubpagesPerPage
			script := append(fillScript(sectors, pageSecs, 2),
				withTicks(MixedScript(sectors, pageSecs, 40, 19), 3)...)
			// The sweep is only meaningful if the script actually shallow-
			// erases: dry-run once and check the device counters.
			dev, _ := c.env.NewDevice(t)
			f, err := c.env.Factory(dev)
			if err != nil {
				t.Fatal(err)
			}
			if crashed := replay(t, f, script, NewModel(sectors)); crashed {
				t.Fatal("dry run lost power")
			}
			if n := dev.Counters().ShallowErases; n == 0 {
				t.Fatal("script performed no shallow erases — the sweep would not exercise them")
			}
			SPOSweep(t, c.env, script)
		})
	}
}
