package ftltest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// pinnedWorkload drives a fixed mixed request stream over the preconditioned
// space (the regime the experiments run in): small synchronous
// overwrites of a hot set, small buffered writes, large (often misaligned)
// writes, reads, trims and flushes, a maintenance tick every 16 requests
// and a one-day idle gap every 1000 so retention work runs too.
func pinnedWorkload(f ftl.FTL, dev *nand.Device, space int64, ps int) error {
	rng := sim.NewRNG(2017)
	hot := space / 16
	for i := 0; i < 20000; i++ {
		var err error
		switch k := rng.Intn(100); {
		case k < 55:
			err = f.Write(rng.Int63n(hot), 1+rng.Intn(ps-1), true)
		case k < 70:
			err = f.Write(rng.Int63n(space-int64(ps)), 1+rng.Intn(ps-1), false)
		case k < 78:
			n := ps*(1+rng.Intn(8)) + rng.Intn(ps)
			err = f.Write(rng.Int63n(space-int64(n)), n, rng.Intn(4) == 0)
		case k < 92:
			n := 1 + rng.Intn(2*ps)
			err = f.Read(rng.Int63n(space-int64(n)), n)
		case k < 96:
			n := 1 + rng.Intn(2*ps)
			err = f.Trim(rng.Int63n(space-int64(n)), n)
		default:
			err = f.Flush()
		}
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if i%16 == 15 {
			dev.Clock().AdvanceTo(dev.DrainTime())
			if i%1000 == 999 {
				dev.Clock().Advance(24 * time.Hour)
			}
			if err := f.Tick(); err != nil {
				return fmt.Errorf("tick after request %d: %w", i, err)
			}
		}
	}
	return f.Flush()
}

// TestPinnedFTLBehaviour pins what the three FTLs do to the device, cell by
// cell: an FNV-1a over every ftl.Stats field (device counters and wear
// distribution included), the drain time and the per-block erase counts
// after a fixed workload. The constants were recorded on the commit before
// fullpage and fgm were moved onto the shared page-append log (PR 12), so
// a change to allocation order, GC pacing, program-fail replay or cold
// placement that moves a single program or erase fails here. The four
// subFTL/step=8 constants date from PR 23, which made the subpage region a
// client of the log's capacity gate: inside the reserve cushion a budgeted
// region now grows where it used to wait for the whole reserve.
func TestPinnedFTLBehaviour(t *testing.T) {
	faults := fault.Profile{
		Seed:            7,
		ProgramFailProb: 2e-4,
		EraseFailProb:   1e-4,
		FactoryBadFrac:  0.005,
	}
	pins := []struct {
		kind      experiment.Kind
		step      int // GC step pages and background slack; 0 = whole-block greedy
		faulty    bool
		lifetime  bool // AERO erase depth + longevity placement
		hash      uint64
		failMoves int64
	}{
		{experiment.KindCGM, 0, false, false, 0xe41f912db12b696f, 0},
		{experiment.KindCGM, 0, false, true, 0x3c0fc9cb1b83e1a9, 0},
		{experiment.KindCGM, 0, true, false, 0x3e80861ec1d73cc4, 13},
		{experiment.KindCGM, 0, true, true, 0xbb27c2002f0376fc, 13},
		{experiment.KindCGM, 8, false, false, 0x2b7e6650ad80063e, 0},
		{experiment.KindCGM, 8, false, true, 0x1da9d3c12d31fd7e, 0},
		{experiment.KindCGM, 8, true, false, 0xb17c2e09ef976736, 12},
		{experiment.KindCGM, 8, true, true, 0x7088806dd04f380b, 12},
		{experiment.KindFGM, 0, false, false, 0xadfc787bab5b941f, 0},
		{experiment.KindFGM, 0, false, true, 0x564a9f0c82c67e56, 0},
		{experiment.KindFGM, 0, true, false, 0x9e73c430d4d86d68, 10},
		{experiment.KindFGM, 0, true, true, 0x59c2936da3d0fc1a, 10},
		{experiment.KindFGM, 8, false, false, 0xcee8107376c163fa, 0},
		{experiment.KindFGM, 8, false, true, 0x99deb004199424d6, 0},
		{experiment.KindFGM, 8, true, false, 0x11b83c35e93aed7, 11},
		{experiment.KindFGM, 8, true, true, 0x444c7df1d860acdf, 11},
		{experiment.KindSub, 0, false, false, 0xf3f29a4935db5abe, 0},
		{experiment.KindSub, 0, false, true, 0x76b3114451fb5821, 0},
		{experiment.KindSub, 0, true, false, 0x37458c1745357559, 18},
		{experiment.KindSub, 0, true, true, 0x617c59a4a39ad7bb, 18},
		{experiment.KindSub, 8, false, false, 0x649b038128509278, 0},
		{experiment.KindSub, 8, false, true, 0x183080e9165d7514, 0},
		{experiment.KindSub, 8, true, false, 0x94f89b3d498cfe8d, 17},
		{experiment.KindSub, 8, true, true, 0x9795976ba1671a57, 18},
	}
	for _, p := range pins {
		p := p
		name := fmt.Sprintf("%s/step=%d/faults=%v/lifetime=%v", p.kind, p.step, p.faulty, p.lifetime)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := experiment.RunConfig{
				Kind:              p.kind,
				Geometry:          experiment.QuickGeometry,
				GCStepPages:       p.step,
				GCBackgroundSlack: p.step,
				Lifetime:          p.lifetime,
			}
			if p.lifetime {
				cfg.ErasePolicy = "aero"
			}
			if p.faulty {
				cfg.FaultProfile = &faults
			}
			dev, f, logical, err := experiment.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps := dev.Geometry().SubpagesPerPage
			fill := int64(float64(logical)*0.89) / int64(ps) * int64(ps)
			if err := experiment.Precondition(f, ps, fill); err != nil {
				t.Fatal(err)
			}
			if err := pinnedWorkload(f, dev, fill, ps); err != nil && !errors.Is(err, ftl.ErrReadOnly) {
				t.Fatal(err)
			}
			if err := f.Check(); err != nil {
				t.Fatal(err)
			}
			s := f.Stats()
			if s.GCInvocations == 0 {
				t.Fatal("workload never collected; the pin is vacuous")
			}
			if p.lifetime && s.LifetimeSegregated == 0 {
				t.Error("lifetime cell never used the cold stripe")
			}
			if p.step > 0 && s.GCPreemptions == 0 {
				t.Error("incremental cell never preempted a drain")
			}
			if s.ProgramFailMoves != p.failMoves {
				t.Errorf("ProgramFailMoves = %d, want %d", s.ProgramFailMoves, p.failMoves)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v|%+v|%d|", s, dev.Counters(), dev.DrainTime())
			for b := 0; b < dev.Geometry().TotalBlocks(); b++ {
				fmt.Fprintf(h, "%d,", dev.EraseCount(nand.BlockID(b)))
			}
			if got := h.Sum64(); got != p.hash {
				t.Errorf("behaviour hash %#x, want %#x (fail moves %d)", got, p.hash, s.ProgramFailMoves)
			}
		})
	}
}
