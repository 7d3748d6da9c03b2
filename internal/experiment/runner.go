// Package experiment is the harness that regenerates every table and
// figure of the paper's evaluation: it assembles a device and an FTL,
// preconditions the SSD to steady state (the paper fills 10 GB of its
// 16 GB device before measuring), replays a workload, and reports the
// stats delta of the measured phase. One Experiment per paper artifact
// lives in figures.go and ablations.go, and grid.go runs their cells;
// cmd/espbench and the repository's benchmarks both call through here.
package experiment

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	"espftl/internal/core"
	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/ftl/cgm"
	"espftl/internal/ftl/fgm"
	"espftl/internal/gc"
	"espftl/internal/host"
	"espftl/internal/lifetime"
	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// Kind selects the FTL under test.
type Kind string

// The three FTLs the paper compares.
const (
	KindCGM Kind = "cgmFTL"
	KindFGM Kind = "fgmFTL"
	KindSub Kind = "subFTL"
)

// ExperimentGeometry is the full-size device for `espbench`: the paper's
// 8-channel x 4-chip fabric at 2 GiB raw capacity, nand.DefaultGeometry
// (the paper itself scales its 512 GB platform to 16 GB for run time; we
// scale once more because FTL behaviour is utilization- not
// capacity-determined).
var ExperimentGeometry = nand.DefaultGeometry

// QuickGeometry is the reduced device used by `go test -bench` so the
// whole suite runs in minutes.
var QuickGeometry = nand.Geometry{
	Channels:        8,
	ChipsPerChannel: 4,
	BlocksPerChip:   16,
	PagesPerBlock:   32,
	SubpagesPerPage: 4,
	SubpageBytes:    4096,
}

// RunConfig assembles one simulation run.
type RunConfig struct {
	Kind     Kind
	Geometry nand.Geometry
	// LogicalFrac is the exported logical space as a fraction of raw
	// capacity; FillFrac is how much of it preconditioning fills. The
	// defaults (0.70, 0.89) reproduce the paper's 62.5 % raw occupancy
	// (10 GB data on a 16 GB SSD) while leaving subFTL's full-page
	// region able to hold the whole logical space if everything cools.
	LogicalFrac, FillFrac float64
	// Requests is the measured request count.
	Requests int
	// Profile drives the synthetic workload.
	Profile workload.Profile
	// Trace, when non-nil, replays these requests instead of Profile.
	Trace []workload.Request
	Seed  uint64
	// TickEvery is how many requests pass between FTL.Tick calls.
	TickEvery int

	// MeasureLatency records, per request, how much the request extended
	// the device's completion horizon — a saturated-queue proxy for
	// service latency that makes GC stalls visible as tail spikes.
	MeasureLatency bool

	// FTL-specific knobs.
	SubRegionFrac     float64 // subFTL; 0 = paper default 0.20
	DisableHotColdGC  bool    // subFTL ablation
	DisableRetention  bool    // subFTL ablation
	EnableSubpageRead bool    // device extension (paper §7 future work)

	// GC policy-engine knobs, shared by every FTL's collectors. GCPolicy
	// selects victim selection ("greedy", "cost-benefit", "windowed";
	// empty = greedy), GCStepPages bounds the pages copied per collection
	// step (0 = whole-block drains), and GCBackgroundSlack lets Tick run
	// collection steps while the free pool is within that many blocks of
	// the reserve (0 = foreground-only).
	GCPolicy          string
	GCStepPages       int
	GCBackgroundSlack int
	// BGDeferLimit caps how many scheduler events a background Tick
	// yields to pending host reads before dispatching anyway (0 = the
	// host scheduler's default). Lower values trade read priority for
	// background-GC throughput under sustained load.
	BGDeferLimit int

	// Lifetime-subsystem knobs, shared by every FTL. ErasePolicy selects
	// the erase-depth policy ("fixed-deep", the paper's and the default
	// when empty, or "aero"). Lifetime replaces the paper's size-routed
	// placement with the longevity predictor and hot/cold steering.
	ErasePolicy string
	Lifetime    bool

	// FaultProfile, when non-nil, arms the device's fault injector with
	// this profile and enables the stepped read-retry recovery path.
	// Nil keeps the fault-free device, bit-identical to runs before the
	// injector existed.
	FaultProfile *fault.Profile

	// Host-scheduler knobs. QueueDepth > 0 (closed loop) or
	// ArrivalRate > 0 (open loop, requests per virtual second; takes
	// precedence) replays the measured phase through the event-driven
	// multi-queue scheduler in internal/host instead of the serial path.
	// At QueueDepth 1 with FIFO arbitration the scheduler path is
	// bit-identical to the serial one.
	QueueDepth  int
	NumQueues   int     // submission-queue lanes (default 1)
	Arbitration string  // "fifo" (default) or "read-priority"
	ArrivalRate float64 // open-loop offered load, requests per second
}

// withDefaults fills zero fields.
func (c RunConfig) withDefaults() RunConfig {
	if c.Geometry.Channels == 0 {
		c.Geometry = QuickGeometry
	}
	if c.LogicalFrac == 0 {
		c.LogicalFrac = 0.70
	}
	if c.FillFrac == 0 {
		c.FillFrac = 0.89
	}
	if c.Requests == 0 {
		c.Requests = 50000
	}
	if c.TickEvery == 0 {
		c.TickEvery = 64
	}
	if c.SubRegionFrac == 0 {
		c.SubRegionFrac = 0.20
	}
	return c
}

// BindPolicyFlags registers on fs the device-policy flags espsim and
// espserved share — -ftl -full -arb -gc-policy -gc-step -gc-bg
// -erase-policy -lifetime — and returns the RunConfig they fill when fs is
// parsed. ftlUsage and fullUsage are the help lines of -ftl and -full, the
// two whose wording names the tool's role (simulate or serve).
func BindPolicyFlags(fs *flag.FlagSet, ftlUsage, fullUsage string) *RunConfig {
	c := new(RunConfig)
	fs.StringVar((*string)(&c.Kind), "ftl", string(KindSub), ftlUsage)
	fs.BoolFunc("full", fullUsage, func(v string) error {
		on, err := strconv.ParseBool(v)
		if on {
			c.Geometry = ExperimentGeometry
		}
		return err
	})
	fs.StringVar(&c.Arbitration, "arb", "fifo", "host-scheduler arbitration: fifo or read-priority")
	fs.StringVar(&c.GCPolicy, "gc-policy", "greedy", "GC victim policy: greedy, cost-benefit or windowed")
	fs.IntVar(&c.GCStepPages, "gc-step", 0, "pages copied per GC collection step (0 = whole-block drains)")
	fs.IntVar(&c.GCBackgroundSlack, "gc-bg", 0, "background-GC slack in free blocks above the reserve (0 = foreground-only GC)")
	fs.StringVar(&c.ErasePolicy, "erase-policy", "fixed-deep", "erase-depth policy: fixed-deep or aero")
	fs.BoolVar(&c.Lifetime, "lifetime", false, "replace size-routed placement with longevity-aware placement (update-interval predictor + hot/cold steering)")
	return c
}

// Result is the measured-phase outcome of one run.
type Result struct {
	Kind    Kind
	Profile string
	// Requests and Elapsed give IOPS; Elapsed is virtual device time.
	Requests int
	Elapsed  sim.Duration
	// Stats is the measured-phase delta.
	Stats ftl.Stats
	// FillSectors is the preconditioned working-set size.
	FillSectors int64
	// ChipUtil is the per-chip busy fraction over the whole run
	// (preconditioning included), a parallelism diagnostic.
	ChipUtil []float64
	// ChipOps is the per-chip operation count over the whole run.
	ChipOps []int64
	// SubRegionValid and SubRegionBlocks snapshot subFTL's subpage region
	// at the end of the run (zero for the baselines).
	SubRegionValid  int
	SubRegionBlocks int
	// Latency holds per-request completion-horizon extensions when
	// RunConfig.MeasureLatency was set.
	Latency *metrics.Histogram
	// RetryHist is the device's retries-per-read histogram over the whole
	// run (nil without fault injection).
	RetryHist *metrics.IntHistogram
	// Sched is the host-scheduler report (nil on the serial path).
	Sched *host.Report
}

// IOPS returns measured requests per virtual second.
func (r *Result) IOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// buildFTL constructs the FTL under test.
func buildFTL(kind Kind, dev *nand.Device, cfg RunConfig, logicalSectors int64) (ftl.FTL, error) {
	// The GC reserve scales with the chip count so GC relocation can use
	// a meaningful fraction of the device's parallelism.
	reserve := dev.Geometry().Chips() + 4
	gcOpts := gc.Options{
		Policy:          cfg.GCPolicy,
		StepPages:       cfg.GCStepPages,
		BackgroundSlack: cfg.GCBackgroundSlack,
	}
	erasePol, err := lifetime.NewErasePolicy(cfg.ErasePolicy)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindCGM:
		return cgm.New(dev, cgm.Config{
			LogicalSectors:  logicalSectors,
			GCReserveBlocks: reserve,
			GC:              gcOpts,
			ErasePolicy:     erasePol,
			Lifetime:        cfg.Lifetime,
		})
	case KindFGM:
		return fgm.New(dev, fgm.Config{
			LogicalSectors:  logicalSectors,
			GCReserveBlocks: reserve,
			GC:              gcOpts,
			ErasePolicy:     erasePol,
			Lifetime:        cfg.Lifetime,
		})
	case KindSub:
		sc := core.DefaultConfig(logicalSectors)
		sc.SubRegionFrac = cfg.SubRegionFrac
		sc.GCReserveBlocks = reserve
		sc.DisableHotColdGC = cfg.DisableHotColdGC
		sc.DisableRetention = cfg.DisableRetention
		sc.GC = gcOpts
		sc.ErasePolicy = erasePol
		sc.Lifetime = cfg.Lifetime
		return core.New(dev, sc)
	}
	return nil, fmt.Errorf("experiment: unknown FTL kind %q", kind)
}

// Precondition sequentially fills fillSectors of the logical space with
// full-page aligned writes and flushes, bringing the device to the steady
// state the paper measures from.
func Precondition(f ftl.FTL, pageSectors int, fillSectors int64) error {
	step := int64(pageSectors * 8) // 128-KB sequential fill writes
	for lsn := int64(0); lsn < fillSectors; lsn += step {
		n := step
		if lsn+n > fillSectors {
			n = fillSectors - lsn
		}
		if err := f.Write(lsn, int(n), false); err != nil {
			return fmt.Errorf("experiment: preconditioning at lsn %d: %w", lsn, err)
		}
	}
	return f.Flush()
}

// Build assembles the device and FTL of a run configuration without
// driving a workload, returning the exported logical space in sectors.
// Run measures through it; the network service mounts through it.
func Build(cfg RunConfig) (*nand.Device, ftl.FTL, int64, error) {
	return BuildSized(cfg, 0)
}

// BuildSized is Build with the exported logical space given in sectors;
// 0 derives it from cfg.LogicalFrac. The public espftl API, whose drives
// are sized in sectors, builds through it.
func BuildSized(cfg RunConfig, logicalSectors int64) (*nand.Device, ftl.FTL, int64, error) {
	cfg = cfg.withDefaults()
	var inj *fault.Injector
	if cfg.FaultProfile != nil {
		var err error
		if inj, err = fault.NewInjector(*cfg.FaultProfile); err != nil {
			return nil, nil, 0, err
		}
	}
	return assemble(cfg, inj, logicalSectors)
}

// assemble builds cfg's device around inj (nil = the fault-free device)
// and a fresh FTL exporting logicalSectors on it (0 = cfg.LogicalFrac of
// the raw capacity); cfg must already carry its defaults. Stepped
// read-retry is armed only when cfg has a fault profile: RunSPO's bare
// power-cut injector must leave the read path of a fault-free run as it is.
func assemble(cfg RunConfig, inj *fault.Injector, logicalSectors int64) (*nand.Device, ftl.FTL, int64, error) {
	devCfg := nand.DefaultConfig()
	devCfg.Geometry = cfg.Geometry
	devCfg.EnableSubpageRead = cfg.EnableSubpageRead
	devCfg.Fault = inj
	devCfg.Retry = cfg.FaultProfile != nil
	dev, err := nand.NewDevice(devCfg, sim.NewClock(0))
	if err != nil {
		return nil, nil, 0, err
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	if logicalSectors == 0 {
		logicalSectors = int64(float64(g.TotalSubpages())*cfg.LogicalFrac) / ps * ps
	}
	if logicalSectors < ps*4 {
		return nil, nil, 0, fmt.Errorf("experiment: logical space of %d sectors too small", logicalSectors)
	}
	f, err := buildFTL(cfg.Kind, dev, cfg, logicalSectors)
	if err != nil {
		return nil, nil, 0, err
	}
	return dev, f, logicalSectors, nil
}

// Run executes one configured simulation and returns its measured result.
func Run(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	dev, f, logicalSectors, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	fillSectors := int64(float64(logicalSectors)*cfg.FillFrac) / ps * ps
	if err := Precondition(f, g.SubpagesPerPage, fillSectors); err != nil {
		return nil, err
	}

	before := f.Stats()
	drainBefore := dev.DrainTime()
	dev.Clock().AdvanceTo(drainBefore)

	res := &Result{Kind: cfg.Kind, FillSectors: fillSectors}
	if cfg.MeasureLatency {
		res.Latency = metrics.NewHistogram()
	}
	scheduled := cfg.QueueDepth > 0 || cfg.ArrivalRate > 0
	var next func() workload.Request
	if cfg.Trace != nil {
		if scheduled {
			return nil, fmt.Errorf("experiment: the host-scheduler path replays generated workloads only (traces carry idle gaps the closed/open-loop drivers redefine)")
		}
		res.Profile, res.Requests = "trace", len(cfg.Trace)
		i := 0
		next = func() workload.Request { i++; return cfg.Trace[i-1] }
	} else {
		gen, err := workload.NewSynthetic(cfg.Profile, fillSectors, g.SubpagesPerPage, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		res.Profile, res.Requests = cfg.Profile.Name, cfg.Requests
		if scheduled {
			if res.Sched, err = runScheduled(dev, f, gen, cfg); err != nil {
				return nil, err
			}
		} else {
			next = gen.Next
		}
	}
	if next != nil {
		if _, err := replay(f, next, res.Requests, cfg.TickEvery, dev, res.Latency); err != nil {
			return nil, err
		}
	}
	if err := f.Flush(); err != nil {
		return nil, err
	}
	res.Elapsed = dev.DrainTime().Sub(drainBefore)
	res.Stats = f.Stats().Sub(before)
	res.ChipUtil = dev.ChipUtilization()
	res.ChipOps = dev.ChipOps()
	if cfg.FaultProfile != nil {
		res.RetryHist = dev.RetryHistogram()
	}
	if sub, ok := f.(*core.FTL); ok {
		res.SubRegionValid = sub.RegionValid()
		res.SubRegionBlocks = sub.SubRegionBlocks()
	}
	if err := f.Check(); err != nil {
		return nil, fmt.Errorf("experiment: post-run invariant violation: %w", err)
	}
	return res, nil
}

// runScheduled replays the measured phase through the event-driven host
// scheduler: open loop when an arrival rate is set, closed loop otherwise.
func runScheduled(dev *nand.Device, f ftl.FTL, gen workload.Generator, cfg RunConfig) (*host.Report, error) {
	arb, err := host.NewArbiter(cfg.Arbitration)
	if err != nil {
		return nil, err
	}
	sched, err := host.New(dev, f, host.Config{
		Queues:               cfg.NumQueues,
		Arbiter:              arb,
		TickEvery:            cfg.TickEvery,
		BackgroundDeferLimit: cfg.BGDeferLimit,
	})
	if err != nil {
		return nil, err
	}
	if cfg.ArrivalRate > 0 {
		return sched.RunOpenLoop(gen, cfg.Requests, cfg.ArrivalRate)
	}
	return sched.RunClosedLoop(gen, cfg.Requests, cfg.QueueDepth)
}

// ReplayGenerator feeds n generated requests to the FTL, ticking
// maintenance every tickEvery requests.
func ReplayGenerator(f ftl.FTL, gen workload.Generator, n, tickEvery int) error {
	_, err := replay(f, gen.Next, n, tickEvery, nil, nil)
	return err
}

// replay is the one serial replay loop, for generated workloads and
// recorded traces alike: it feeds n requests from next to the FTL and
// returns how many completed (request and owed tick both) before the first
// error. With dev non-nil an OpAdvance idles across its gap; without one
// ftl.Apply refuses it (generators never emit one). With h non-nil it also
// records, per request, how far the request pushed dev's drain time: under
// a saturated queue this is the request's marginal service demand, and
// foreground GC appears as tail spikes. An idle gap is no request and
// records nothing.
func replay(f ftl.FTL, next func() workload.Request, n, tickEvery int, dev *nand.Device, h *metrics.Histogram) (int, error) {
	var before sim.Time
	if h != nil {
		before = dev.DrainTime()
	}
	for i := 0; i < n; i++ {
		r := next()
		var err error
		if r.Op == workload.OpAdvance && dev != nil {
			err = idle(f, dev.Clock(), r.Gap)
		} else {
			err = ftl.Apply(f, r)
		}
		if err != nil {
			return i, fmt.Errorf("experiment: request %d (%v): %w", i, r, err)
		}
		if h != nil {
			after := dev.DrainTime()
			if r.Op != workload.OpAdvance {
				h.Record(after.Sub(before))
			}
			before = after
		}
		if tickEvery > 0 && i%tickEvery == 0 {
			if err := f.Tick(); err != nil {
				return i, err
			}
		}
	}
	return n, nil
}

// idle advances the clock across a trace's idle gap in one-day steps with a
// maintenance tick per step: time-based work such as retention scrubbing
// runs in the background of a real controller, so a month-long trace gap
// must not be an atomic jump past every deadline.
func idle(f ftl.FTL, clock *sim.Clock, gap time.Duration) error {
	const step = 24 * time.Hour
	for remaining := gap; remaining > 0; remaining -= step {
		d := remaining
		if d > step {
			d = step
		}
		clock.Advance(d)
		if err := f.Tick(); err != nil {
			return err
		}
	}
	return nil
}
