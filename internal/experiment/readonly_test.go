package experiment

import (
	"errors"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/workload"
)

// TestFaultRunDegradesToReadOnly replays `espsim -ftl K -profile tpc-c
// -requests 200000 -faults` (quick device, fault seed 42) on each FTL. Bad
// blocks use up the spare capacity part-way through, so the run must stop
// with ftl.ErrReadOnly; subFTL used to fail a GC destination refill with
// "free pool exhausted" instead. The degraded FTL must still pass Check and
// read back everything preconditioning wrote, the sectors of the failed
// write included: their versions are unwound to the copies that landed.
func TestFaultRunDegradesToReadOnly(t *testing.T) {
	for _, kind := range []Kind{KindSub, KindFGM, KindCGM} {
		t.Run(string(kind), func(t *testing.T) {
			prof := fault.DefaultProfile(42)
			cfg := RunConfig{Kind: kind, Profile: workload.TPCC(), Requests: 200000, Seed: 1, FaultProfile: &prof}.withDefaults()
			dev, f, logical, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps := int64(dev.Geometry().SubpagesPerPage)
			fill := int64(float64(logical)*cfg.FillFrac) / ps * ps
			if err := Precondition(f, int(ps), fill); err != nil {
				t.Fatal(err)
			}
			dev.Clock().AdvanceTo(dev.DrainTime())
			gen, err := workload.NewSynthetic(cfg.Profile, fill, int(ps), cfg.Seed+1)
			if err != nil {
				t.Fatal(err)
			}
			n, err := replay(f, gen.Next, cfg.Requests, cfg.TickEvery, dev, nil)
			if !errors.Is(err, ftl.ErrReadOnly) {
				t.Fatalf("run ended after %d requests with %v, want ftl.ErrReadOnly", n, err)
			}
			if err := f.Check(); err != nil {
				t.Fatalf("after degrading: %v", err)
			}
			for lsn := int64(0); lsn < fill; lsn += ps {
				if err := f.Read(lsn, int(ps)); err != nil {
					t.Fatalf("read of lsn %d after degrading: %v", lsn, err)
				}
			}
		})
	}
}
