package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"espftl/internal/core"
	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/ftl/cgm"
	"espftl/internal/ftl/fgm"
	"espftl/internal/gc"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// kindKey is the short name a per-layer metric carries for an FTL.
func kindKey(k experiment.Kind) string {
	switch k {
	case experiment.KindSub:
		return "sub"
	case experiment.KindFGM:
		return "fgm"
	}
	return "cgm"
}

// stack is one device with the FTL on top of it.
type stack struct {
	kind    experiment.Kind
	dev     *nand.Device
	f       ftl.FTL
	logical int64 // exported sectors
	fill    int64 // preconditioned sectors
	gc      gc.Options
}

// buildStack assembles and preconditions a stack the way experiment.Run
// does: experiment.Build, then a sequential fill of fillFrac of the
// logical space.
func buildStack(kind experiment.Kind, geo nand.Geometry, gcOpts gc.Options, fillFrac float64) (*stack, error) {
	dev, f, logical, err := experiment.Build(experiment.RunConfig{
		Kind:              kind,
		Geometry:          geo,
		GCPolicy:          gcOpts.Policy,
		GCStepPages:       gcOpts.StepPages,
		GCBackgroundSlack: gcOpts.BackgroundSlack,
	})
	if err != nil {
		return nil, err
	}
	ps := int64(geo.SubpagesPerPage)
	s := &stack{kind: kind, dev: dev, f: f, logical: logical, gc: gcOpts}
	s.fill = int64(float64(logical)*fillFrac) / ps * ps
	return s, nil
}

func (s *stack) precondition() error {
	if err := experiment.Precondition(s.f, s.dev.Geometry().SubpagesPerPage, s.fill); err != nil {
		return err
	}
	s.quiesce()
	return nil
}

// generator is the seeded request stream over the preconditioned space.
func (s *stack) generator(p workload.Profile, seed uint64) (workload.Generator, error) {
	return workload.NewSynthetic(p, s.fill, s.dev.Geometry().SubpagesPerPage, seed+1)
}

// quiesce moves the clock to the device's drain horizon, as
// experiment.Run does after preconditioning: the next phase starts on an
// idle device, so the horizon's growth over it is that phase's own time.
func (s *stack) quiesce() { s.dev.Clock().AdvanceTo(s.dev.DrainTime()) }

// freshFTL builds an unmounted FTL of the given kind over an existing
// device, with the configuration experiment.Build gives it: what a
// remount after power loss starts from.
func freshFTL(kind experiment.Kind, dev *nand.Device, logical int64, gcOpts gc.Options) (ftl.FTL, error) {
	reserve := dev.Geometry().Chips() + 4
	switch kind {
	case experiment.KindCGM:
		return cgm.New(dev, cgm.Config{LogicalSectors: logical, GCReserveBlocks: reserve, GC: gcOpts})
	case experiment.KindFGM:
		return fgm.New(dev, fgm.Config{LogicalSectors: logical, GCReserveBlocks: reserve, GC: gcOpts})
	case experiment.KindSub:
		sc := core.DefaultConfig(logical)
		sc.GCReserveBlocks = reserve
		sc.GC = gcOpts
		return core.New(dev, sc)
	}
	return nil, fmt.Errorf("benchmark: unknown FTL kind %q", kind)
}

// window is the simulated outcome of one stack's timed window.
type window struct {
	reqs    int64
	failed  int64
	wall    time.Duration
	elapsed sim.Duration // growth of the device's drain horizon
	stats   ftl.Stats    // delta over the window
	// firstHalf is the stats delta of the window's first half, for the
	// steady-state (WAF drift) check.
	firstHalf ftl.Stats
	virtLat   []int64 // per-request virtual latency samples, ns
	virtP99   int64   // ns
	virtTail  float64 // ns: mean over the slowest 1 % of requests
}

// finishLat sorts the latency samples and takes their p99 and tail mean;
// it runs after the window's clocks have stopped. The device model's
// latencies are sums of a few fixed operation times, so the p99 sits on
// one of a handful of values and hides most changes; the mean over the
// slowest 1 % moves with every stall and is what the end-to-end tail
// metric reports.
func (w *window) finishLat() {
	slices.Sort(w.virtLat)
	w.virtP99 = percentile(w.virtLat, 0.99)
	n := len(w.virtLat)
	tail := w.virtLat[n-(n+99)/100:]
	var sum int64
	for _, v := range tail {
		sum += v
	}
	w.virtTail = ratio(float64(sum), float64(len(tail)))
}

func (w *window) virtIOPS() float64 { return ratio(float64(w.reqs), w.elapsed.Seconds()) }

func erasesPerKReq(s ftl.Stats) float64 {
	return ratio(float64(s.Device.Erases)*1000, float64(s.HostWriteReqs))
}

// addTo folds the window's simulated outcome into a model digest.
func (w *window) addTo(d *digest) {
	s := w.stats
	d.add(w.reqs, w.failed, int64(w.elapsed),
		s.HostWriteReqs, s.HostReadReqs, s.HostTrimReqs, s.HostSectorsWritten, s.HostSectorsRead,
		s.SmallWriteReqs, s.SmallHostBytes, s.SmallFlashBytes,
		s.RMWOps, s.GCInvocations, s.GCMovedSectors, s.GCSteps, s.GCPagesCopied, s.GCPreemptions,
		s.RoundAdvances, s.SubShifts, s.Evictions, s.RetentionMoves, s.RegionReclaims,
		s.BufferAbsorbed, s.ReadBufferHits,
		s.Device.PageReads, s.Device.SubpageReads, s.Device.PagePrograms, s.Device.SubPrograms,
		s.Device.Erases, s.Device.BytesWritten, s.Device.BytesRead, s.Device.ReadFailures,
		w.virtP99, int64(w.virtTail))
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
