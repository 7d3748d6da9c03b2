package ftltest

import (
	"fmt"
	"testing"

	"espftl/internal/core"
	"espftl/internal/ftl"
	"espftl/internal/ftl/cgm"
	"espftl/internal/ftl/fgm"
	"espftl/internal/gc"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// gcShape is the device a GC differential runs on: geometry, exported
// sectors and the collectors' reserve.
type gcShape struct {
	geometry nand.Geometry
	sectors  int64
	reserve  int
}

// tinyShape is the conformance device: its reserve of 3 is under the
// budgeted hard floor, so a budgeted gate behaves like a whole-block one.
var tinyShape = gcShape{TinyGeometry(), 512, 3}

// cushionShape has a reserve (chips + 8 = 12) above the budgeted hard floor
// of 8: between the two a budgeted collector lets allocation proceed on
// bounded steps, the only regime where budgeted and whole-block gates admit
// differently.
var cushionShape = gcShape{
	geometry: nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		BlocksPerChip:   24,
		PagesPerBlock:   8,
		SubpagesPerPage: 4,
		SubpageBytes:    4096,
	},
	sectors: 2048,
	reserve: 12,
}

// gcEnvs returns one CrashEnv per FTL implementation over the given shape
// with the given GC options wired through, mirroring crashEnvs.
func gcEnvs(shape gcShape, opts gc.Options) []struct {
	name string
	env  CrashEnv
} {
	sectors, reserve := shape.sectors, shape.reserve
	base := CrashEnv{Geometry: shape.geometry, Sectors: sectors, Seed: 42}
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
			return cgm.New(dev, cgm.Config{LogicalSectors: sectors, GCReserveBlocks: reserve, GC: opts})
		})},
		{"fgmFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			return fgm.New(dev, fgm.Config{LogicalSectors: sectors, GCReserveBlocks: reserve, GC: opts})
		})},
		{"subFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			cfg := core.DefaultConfig(sectors)
			cfg.GCReserveBlocks = reserve
			cfg.BufferSectors = 32
			cfg.GC = opts
			return core.New(dev, cfg)
		})},
	}
}

// tpccScript preconditions the whole logical space with large sequential
// writes and then replays n requests of the TPC-C profile (11.8 % small,
// 40 % reads, large sequential writes): the mix that keeps the full-page
// region busy and the subpage region nearly idle, so the pool is shared
// under pressure.
func tpccScript(t *testing.T, sectors int64, pageSecs, n int, seed uint64) []CrashOp {
	t.Helper()
	script := fillScript(sectors, pageSecs, 1)
	gen, err := workload.NewSynthetic(workload.TPCC(), sectors, pageSecs, seed)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[workload.Op]CrashOpKind{
		workload.OpWrite: CrashWrite, workload.OpRead: CrashRead,
		workload.OpTrim: CrashTrim, workload.OpFlush: CrashFlush,
	}
	for i := 0; i < n; i++ {
		r := gen.Next()
		kind, ok := kinds[r.Op]
		if !ok {
			t.Fatalf("generated request %d (%v) has no script op", i, r)
		}
		script = append(script, CrashOp{Kind: kind, LSN: r.LSN, Sectors: r.Sectors, Sync: r.Sync})
	}
	return append(script, CrashOp{Kind: CrashFlush})
}

// withTicks interleaves a maintenance tick after every k script ops, giving
// a budgeted collector its background stepping slots.
func withTicks(script []CrashOp, k int) []CrashOp {
	out := make([]CrashOp, 0, len(script)+len(script)/k+1)
	for i, op := range script {
		out = append(out, op)
		if (i+1)%k == 0 {
			out = append(out, CrashOp{Kind: CrashTick})
		}
	}
	return out
}

// durableState replays the script (no power cut), flushes, checks
// invariants, verifies every sector against the model and reads every live
// sector back (the read path verifies stamps, so this catches any GC
// corruption), and returns the logical version vector — the durable state a
// clean remount would recover.
func durableState(t *testing.T, env CrashEnv, script []CrashOp) []uint32 {
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
	if s := f.Stats(); s.GCSteps == 0 {
		t.Fatal("script never triggered collection — the differential is vacuous")
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

// TestGCPolicyDifferential replays one scripted workload per FTL under
// every victim policy, whole-block and incremental, and asserts they all
// reach the identical logical durable state: the policy engine moves GC
// work in time and in placement, never in outcome. Each run is also
// model-checked and fully read back, so a policy that corrupted or lost a
// relocation would fail on its own, not just differ.
func TestGCPolicyDifferential(t *testing.T) {
	grid := []gc.Options{
		{}, // legacy: greedy, whole-block, foreground-only
		{Policy: "greedy", StepPages: 2, BackgroundSlack: 2},
		{Policy: "cost-benefit", StepPages: 2, BackgroundSlack: 2},
		{Policy: "cost-benefit"},
		{Policy: "windowed", StepPages: 2, BackgroundSlack: 2},
		{Policy: "windowed"},
	}
	shapes := []struct {
		prefix string
		shape  gcShape
		script func(t *testing.T, env CrashEnv) []CrashOp
	}{
		// 600 ops fills the tiny device several times over: every FTL
		// collects under every cell (durableState asserts so).
		{"", tinyShape, func(t *testing.T, env CrashEnv) []CrashOp {
			return MixedScript(env.Sectors, env.Geometry.SubpagesPerPage, 600, 13)
		}},
		// Budgeted and whole-block cells must reach the same state through
		// the cushion.
		{"cushion/", cushionShape, func(t *testing.T, env CrashEnv) []CrashOp {
			return tpccScript(t, env.Sectors, env.Geometry.SubpagesPerPage, 1500, 13)
		}},
	}
	for _, sh := range shapes {
		for fi, fe := range gcEnvs(sh.shape, gc.Options{}) {
			t.Run(sh.prefix+fe.name, func(t *testing.T) {
				t.Parallel()
				var base []uint32
				var baseDesc string
				for _, opts := range grid {
					c := gcEnvs(sh.shape, opts)[fi]
					desc := fmt.Sprintf("policy=%q step=%d slack=%d", opts.Policy, opts.StepPages, opts.BackgroundSlack)
					state := durableState(t, c.env, withTicks(sh.script(t, c.env), 3))
					if base == nil {
						base, baseDesc = state, desc
						continue
					}
					for lsn := range state {
						if state[lsn] != base[lsn] {
							t.Fatalf("%s: lsn %d at version %d, but %s reached %d — durable state must be policy-invariant",
								desc, lsn, state[lsn], baseDesc, base[lsn])
						}
					}
				}
			})
		}
	}
}

// fillScript overwrites the whole logical space `rounds` times in large
// aligned runs. Large writes keep the device-op count (and therefore the
// quadratic SPO sweep) small while burning through free blocks fast enough
// to put the collector under pressure before the interesting ops run.
func fillScript(sectors int64, pageSecs, rounds int) []CrashOp {
	run := int64(pageSecs * 4)
	var script []CrashOp
	for r := 0; r < rounds; r++ {
		for lsn := int64(0); lsn+run <= sectors; lsn += run {
			script = append(script, CrashOp{Kind: CrashWrite, LSN: lsn, Sectors: int(run)})
		}
		script = append(script, CrashOp{Kind: CrashFlush})
	}
	// Overwrite alternating runs: sequentially filled blocks end up half
	// invalid, so the victims the pressured collector picks still hold live
	// pages and every step is a real copy, not a free erase. A fill alone
	// would leave victims fully dead and never exercise mid-copy states.
	for lsn := int64(0); lsn+run <= sectors; lsn += 2 * run {
		script = append(script, CrashOp{Kind: CrashWrite, LSN: lsn, Sectors: int(run)})
	}
	script = append(script, CrashOp{Kind: CrashFlush})
	return script
}

// TestSPOSweepIncrementalGC cuts power at every device-operation index of
// a tick-bearing script with incremental (budgeted, background-stepping)
// collection enabled on all three FTLs. Collector checkpoints live only in
// RAM, so a cut in the middle of a partially drained victim must recover
// through the ordinary OOB scan — the sweep hits every mid-step state the
// script reaches: victim half drained, destination block part filled,
// checkpoint about to settle. The fill prologue guarantees the mixed tail
// runs with collection active on every FTL.
func TestSPOSweepIncrementalGC(t *testing.T) {
	for _, c := range gcEnvs(tinyShape, gc.Options{Policy: "greedy", StepPages: 2, BackgroundSlack: 2}) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sectors, pageSecs := c.env.Sectors, c.env.Geometry.SubpagesPerPage
			script := append(fillScript(sectors, pageSecs, 2),
				withTicks(MixedScript(sectors, pageSecs, 40, 19), 3)...)
			SPOSweep(t, c.env, script)
		})
	}
}
