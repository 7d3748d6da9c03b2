package host_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// orderHash folds every dispatched command's (Seq, DispatchIdx, Dispatch,
// Complete) into one FNV-1a hash, in dispatch order. The hook fires before
// the FTL call stamps Complete, so each command's completion time is read
// when the next command is dispatched (and once more at the end).
type orderHash struct {
	h    hash.Hash64
	prev *host.Command
}

func (o *orderHash) put(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	o.h.Write(b[:])
}

func (o *orderHash) observe(c *host.Command) {
	o.flush()
	o.put(c.Seq)
	o.put(c.DispatchIdx)
	o.put(int64(c.Dispatch))
	o.prev = c
}

func (o *orderHash) flush() {
	if o.prev != nil {
		o.put(int64(o.prev.Complete))
		o.prev = nil
	}
}

// quickSubRig is the benchmark's host-workload stack in miniature:
// QuickGeometry, subFTL with incremental background GC, preconditioned.
func quickSubRig(t testing.TB) (*nand.Device, ftl.FTL, *workload.Synthetic) {
	return subRig(t, experiment.QuickGeometry)
}

// subRig is quickSubRig on another geometry.
func subRig(t testing.TB, geo nand.Geometry) (*nand.Device, ftl.FTL, *workload.Synthetic) {
	t.Helper()
	dev, f, logical, err := experiment.Build(experiment.RunConfig{
		Kind:              experiment.KindSub,
		Geometry:          geo,
		GCStepPages:       8,
		GCBackgroundSlack: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := dev.Geometry().SubpagesPerPage
	fill := int64(float64(logical)*0.89) / int64(ps) * int64(ps)
	if err := experiment.Precondition(f, ps, fill); err != nil {
		t.Fatal(err)
	}
	dev.Clock().AdvanceTo(dev.DrainTime())
	gen, err := workload.NewSynthetic(workload.Varmail(), fill, ps, 12)
	if err != nil {
		t.Fatal(err)
	}
	return dev, f, gen
}

// The scheduler's dispatch order is pinned: these hashes were recorded on
// the commit that still scanned every chip queue for the ordering barrier
// (PR 11), so any change to the hazard index, the arbiters or the event
// loop that moves a single dispatch, completion time or counter fails here.
func TestPinnedDispatchOrder(t *testing.T) {
	pins := []struct {
		name                             string
		hash                             uint64
		outOfOrder, promoted, bgDeferred int64
		minBacklog                       float64
		run                              func(*host.Scheduler, workload.Generator) (*host.Report, error)
	}{
		{"open-loop", 0x9368628b441cb3e0, 5638, 1049, 10354, 2000,
			func(s *host.Scheduler, g workload.Generator) (*host.Report, error) {
				return s.RunOpenLoop(g, 6000, 20000)
			}},
		{"closed-qd32", 0xa742c102ee87f0ae, 5645, 1086, 5543, 32,
			func(s *host.Scheduler, g workload.Generator) (*host.Report, error) {
				return s.RunClosedLoop(g, 6000, 32)
			}},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			dev, f, gen := quickSubRig(t)
			s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: &host.ReadPriority{}, TickEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			oh := &orderHash{h: fnv.New64a()}
			s.SetDispatchHook(oh.observe)
			rep, err := p.run(s, gen)
			if err != nil {
				t.Fatal(err)
			}
			oh.flush()
			if got := rep.QueueDepth.MaxValue(); got < p.minBacklog {
				t.Fatalf("backlog peaked at %v commands, want >= %v", got, p.minBacklog)
			}
			if got := oh.h.Sum64(); got != p.hash {
				t.Errorf("dispatch-order hash %#x, want %#x", got, p.hash)
			}
			if rep.OutOfOrder != p.outOfOrder || rep.ReadsPromoted != p.promoted || rep.BackgroundDeferred != p.bgDeferred {
				t.Errorf("OutOfOrder/ReadsPromoted/BackgroundDeferred = %d/%d/%d, want %d/%d/%d",
					rep.OutOfOrder, rep.ReadsPromoted, rep.BackgroundDeferred, p.outOfOrder, p.promoted, p.bgDeferred)
			}
			if err := f.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
