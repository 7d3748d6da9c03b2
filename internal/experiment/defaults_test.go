package experiment

import (
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// TestZeroConfigIsThePaperPolicies builds each FTL twice, from a zero
// RunConfig and from one naming the paper's policies (greedy victims,
// fixed-deep erases), and runs the same workload on both. Stats (labels
// included), device counters and drain time must agree: the defaults are
// those policy objects, not a separate unconfigured path.
func TestZeroConfigIsThePaperPolicies(t *testing.T) {
	type outcome struct {
		stats    ftl.Stats
		counters nand.Counters
		drain    sim.Time
	}
	for _, kind := range []Kind{KindCGM, KindFGM, KindSub} {
		t.Run(string(kind), func(t *testing.T) {
			run := func(cfg RunConfig) outcome {
				t.Helper()
				dev, f, logical, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ps := dev.Geometry().SubpagesPerPage
				fill := int64(float64(logical)*0.89) / int64(ps) * int64(ps)
				if err := Precondition(f, ps, fill); err != nil {
					t.Fatal(err)
				}
				gen, err := workload.NewSynthetic(workload.Varmail(), fill, ps, 2)
				if err != nil {
					t.Fatal(err)
				}
				if err := ReplayGenerator(f, gen, 20000, 64); err != nil {
					t.Fatal(err)
				}
				if err := f.Flush(); err != nil {
					t.Fatal(err)
				}
				return outcome{f.Stats(), dev.Counters(), dev.DrainTime()}
			}
			zero := run(RunConfig{Kind: kind})
			named := run(RunConfig{Kind: kind, GCPolicy: "greedy", ErasePolicy: "fixed-deep"})
			if zero.counters.Erases == 0 {
				t.Fatal("workload never erased a block; the comparison is vacuous")
			}
			if zero != named {
				t.Errorf("zero config and named paper policies differ:\nzero  %#v\nnamed %#v", zero, named)
			}
			if s := zero.stats; s.ErasePolicy != "fixed-deep" || s.GCPolicy != "greedy" {
				t.Errorf("labels = %q/%q, want fixed-deep/greedy", s.ErasePolicy, s.GCPolicy)
			}
		})
	}
}
