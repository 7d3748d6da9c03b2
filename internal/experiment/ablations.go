package experiment

import (
	"fmt"
	"math"
	"time"

	"espftl/internal/fault"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// regionFracs are abl-region's subpage-region sizes.
var regionFracs = []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50}

// ablRegion sweeps the subpage-region size around the paper's 20 % choice
// (§4: "only 20% of the total flash space is assigned to the subpage
// region") on the Varmail profile.
var ablRegion = Experiment{
	ID:  "abl-region",
	Doc: "subpage-region size sweep",
	cells: func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, frac := range regionFracs {
			c := o.cell(KindSub, workload.Varmail())
			c.SubRegionFrac = frac
			// A 50 % subpage region leaves less full-page room, so shrink
			// the logical space enough for every point of the sweep.
			c.LogicalFrac, c.FillFrac = 0.42, 0.9
			cfgs = append(cfgs, c)
		}
		return cfgs
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "subFTL subpage-region size ablation (Varmail)",
			Columns: []string{"region frac", "IOPS", "GC invocations", "evictions", "request WAF", "mapping KiB"},
		}
		for i, res := range results {
			t.AddRow(f2(regionFracs[i]), fmt.Sprintf("%.0f", res.IOPS()),
				fmt.Sprintf("%d", res.Stats.GCInvocations),
				fmt.Sprintf("%d", res.Stats.Evictions),
				f3(res.Stats.AvgRequestWAF()),
				fmt.Sprintf("%.1f", float64(res.Stats.MappingBytes)/1024))
		}
		t.Note("the paper picks 20%% as the mapping-memory vs absorption trade-off; mapping cost rises with the region while returns diminish")
		return t, nil
	}),
}

// ablHotCold compares subFTL with and without the §4.2 hot/cold GC
// separation on the Varmail profile.
var ablHotCold = Experiment{
	ID:  "abl-hotcold",
	Doc: "hot/cold GC separation on/off",
	cells: func(o Options) []RunConfig {
		split, all := o.cell(KindSub, workload.Varmail()), o.cell(KindSub, workload.Varmail())
		all.DisableHotColdGC = true
		return []RunConfig{split, all}
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "subFTL hot/cold GC separation ablation (Varmail)",
			Columns: []string{"GC policy", "IOPS", "GC invocations", "evictions", "RMW ops", "request WAF"},
		}
		for i, name := range []string{"hot/cold split (paper)", "evict-all (no split)"} {
			res := results[i]
			t.AddRow(name, fmt.Sprintf("%.0f", res.IOPS()),
				fmt.Sprintf("%d", res.Stats.GCInvocations),
				fmt.Sprintf("%d", res.Stats.Evictions),
				fmt.Sprintf("%d", res.Stats.RMWOps),
				f3(res.Stats.AvgRequestWAF()))
		}
		t.Note("without the split, hot data is evicted to the full-page region and pays RMWs on its next update")
		return t, nil
	}),
}

// retentionTrace is abl-retention's workload: Varmail write bursts with
// idle gaps, a long park, then a full read of the hot range.
func retentionTrace(seed uint64) []workload.Request {
	gen, err := workload.NewSynthetic(workload.Varmail(), 4096, 4, seed+7)
	if err != nil {
		panic(err)
	}
	var reqs []workload.Request
	// Enough bursts to push the subpage region past round 0, so its live
	// copies are N1pp-or-worse subpages with reduced retention.
	for burst := 0; burst < 24; burst++ {
		for i := 0; i < 500; i++ {
			reqs = append(reqs, gen.Next())
		}
		reqs = append(reqs, workload.Request{Op: workload.OpAdvance, Gap: 5 * 24 * time.Hour})
	}
	// A final long park followed by a full read of the hot range. Fresh
	// (lightly worn) blocks give ESP subpages roughly five months of
	// margin, so the park must exceed that to expose the no-management
	// failure.
	reqs = append(reqs, workload.Request{Op: workload.OpAdvance, Gap: 200 * 24 * time.Hour})
	for lsn := int64(0); lsn < 512; lsn += 4 {
		reqs = append(reqs, workload.Request{Op: workload.OpRead, LSN: lsn, Sectors: 4})
	}
	return reqs
}

// ablRetention runs subFTL with its retention manager (the paper's 15-day
// scrub) on and off on a workload with long idle periods: the managed run
// counts its scrub traffic, the unmanaged one must lose data, so its
// failing outcome is the result.
var ablRetention = Experiment{
	ID:  "abl-retention",
	Doc: "retention management on/off",
	cells: func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, disabled := range []bool{false, true} {
			cfgs = append(cfgs, RunConfig{
				Kind:             KindSub,
				Geometry:         o.Geometry,
				Trace:            retentionTrace(o.Seed),
				Seed:             o.Seed,
				DisableRetention: disabled,
				TickEvery:        16,
			})
		}
		return cfgs
	},
	render: func(_ Options, outs []Outcome) (*Table, error) {
		managed, unmanaged := outs[0], outs[1]
		if managed.Err != nil {
			return nil, managed.Err
		}
		if unmanaged.Err == nil {
			return nil, fmt.Errorf("disabling retention did not lose data; the hazard is not being exercised")
		}
		t := &Table{
			Title:   "subFTL retention management ablation (write bursts, idle gaps, 200-day park)",
			Columns: []string{"policy", "retention moves", "read failures"},
		}
		t.AddRow("15-day scrub (paper)", fmt.Sprintf("%d", managed.Result.Stats.RetentionMoves),
			fmt.Sprintf("%d", managed.Result.Stats.Device.ReadFailures))
		// The unmanaged run dies on the first uncorrectable read — which
		// is the result: data loss.
		t.AddRow("no retention management", "0", "1")
		t.Note("failure = uncorrectable ECC error on read; the no-management run aborts at its first loss")
		t.Note("the §4.3 scrub trades a trickle of migrations for zero retention losses")
		return t, nil
	},
}

// ablFault quantifies the cost of the NAND error-recovery stack: the same
// Varmail run fault-free and with the default fault profile armed
// (transient read disturbs, program/erase failures, factory-bad blocks).
// With recovery on, every injected fault is absorbed by retries and
// relocations — no uncorrectable read reaches the host.
var ablFault = Experiment{
	ID:  "abl-fault",
	Doc: "fault injection and recovery cost",
	cells: func(o Options) []RunConfig {
		clean, faulty := o.cell(KindSub, workload.Varmail()), o.cell(KindSub, workload.Varmail())
		p := fault.DefaultProfile(o.Seed + 99)
		faulty.FaultProfile = &p
		return []RunConfig{clean, faulty}
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "NAND fault injection and recovery cost (Varmail)",
			Columns: []string{"device", "IOPS", "request WAF", "read retries", "program-fail moves", "bad blocks", "read failures"},
		}
		for i, name := range []string{"fault-free", "default fault profile"} {
			res := results[i]
			t.AddRow(name, fmt.Sprintf("%.0f", res.IOPS()),
				f3(res.Stats.AvgRequestWAF()),
				fmt.Sprintf("%d", res.Stats.Device.ReadRetries),
				fmt.Sprintf("%d", res.Stats.ProgramFailMoves),
				fmt.Sprintf("%d", res.Stats.GrownBadBlocks),
				fmt.Sprintf("%d", res.Stats.Device.ReadFailures))
		}
		t.Note("read failure = uncorrectable error surfaced to the FTL after retries; recovery turns faults into latency and write amplification instead")
		return t, nil
	}),
}

// mixedZipf is the read/write Zipf mix of the scheduler and GC-policy
// ablations.
func mixedZipf() workload.Profile {
	return workload.Profile{
		Name:       "mixed-zipf",
		SmallRatio: 0.6,
		SyncRatio:  0.5,
		ReadRatio:  0.4,
		SmallSizes: []int{1, 2, 3},
		LargeSizes: []int{4, 8},
		Zipf:       0.8,
	}
}

// abl-sched's operating points, arbiter-major.
var (
	schedArbs = []string{"fifo", "read-priority"}
	schedQDs  = []int{1, 4, 8, 32}
)

// ablSched sweeps the host scheduler's operating points — queue depth
// {1,4,8,32} under both arbitration policies — on a mixed read/write Zipf
// workload over subFTL. Depth 1 with FIFO is the serial path's operating
// point (bit-identical by construction); rising depth exposes the queueing
// delay and GC interference that turn mean latency into tail latency.
var ablSched = Experiment{
	ID:  "abl-sched",
	Doc: "host scheduler queue-depth x arbitration sweep",
	cells: func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, arb := range schedArbs {
			for _, qd := range schedQDs {
				c := o.cell(KindSub, mixedZipf())
				// The small-write-heavy mix churns the subpage region hard;
				// extra over-provisioning keeps tiny benchmark geometries
				// out of a GC no-victim corner.
				c.LogicalFrac = 0.62
				c.QueueDepth, c.Arbitration = qd, arb
				cfgs = append(cfgs, c)
			}
		}
		return cfgs
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Host scheduler: queue depth x arbitration (mixed Zipf, subFTL)",
			Columns: []string{"arb", "QD", "IOPS", "p50", "p99", "p99.9", "read p99", "OOO", "reads promoted"},
		}
		for i, res := range results {
			h := res.Sched.HostLat.Summary()
			r := res.Sched.ReadLat.Summary()
			t.AddRow(schedArbs[i/len(schedQDs)], fmt.Sprintf("%d", schedQDs[i%len(schedQDs)]),
				fmt.Sprintf("%.0f", res.IOPS()),
				fmt.Sprintf("%v", h.P50.Round(time.Microsecond)),
				fmt.Sprintf("%v", h.P99.Round(time.Microsecond)),
				fmt.Sprintf("%v", h.P999.Round(time.Microsecond)),
				fmt.Sprintf("%v", r.P99.Round(time.Microsecond)),
				fmt.Sprintf("%d", res.Sched.OutOfOrder),
				fmt.Sprintf("%d", res.Sched.ReadsPromoted))
		}
		t.Note("latency = completion minus arrival on the virtual axis; depth 1 FIFO reproduces the serial path bit-for-bit")
		t.Note("read-priority trades write queueing for read tail; promoted reads count dispatches past an older pending write")
		return t, nil
	}),
}

// gcCell is one operating point of the GC-policy ablation.
type gcCell struct {
	name   string
	policy string
	step   int
	slack  int
}

// abl-gc's operating points, collector-major.
var (
	gcCells = []gcCell{
		{"greedy", "greedy", 0, 0}, // whole-block, foreground-only: the baseline
		{"greedy", "greedy", 8, 8},
		{"cost-benefit", "cost-benefit", 8, 8},
		{"windowed", "windowed", 8, 8},
	}
	gcQDs = []int{1, 8, 32}
)

// ablGC sweeps the GC policy engine's operating points: the whole-block
// greedy collector against incremental collection (bounded step budget,
// background stepping through Tick) under each victim policy, at queue
// depth {1,8,32} on a sustained-write mixed Zipf workload over subFTL.
// Incremental collection splits a victim drain into budgeted background
// steps that yield to pending host reads, so rising depth shows the read
// tail shrinking while WAF and durable state stay policy-invariant (see
// the differential tests).
var ablGC = Experiment{
	ID:  "abl-gc",
	Doc: "GC policy x incremental-step x queue-depth sweep",
	cells: func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, g := range gcCells {
			for _, qd := range gcQDs {
				c := o.cell(KindSub, mixedZipf())
				// Half-utilized logical space keeps the sustained overwrite
				// mix under real GC pressure (the preconditioning fill plus
				// Zipf churn holds the pool near the reserve) without
				// cornering tiny benchmark geometries at no-victim.
				c.LogicalFrac = 0.50
				c.QueueDepth = qd
				c.GCPolicy, c.GCStepPages, c.GCBackgroundSlack = g.policy, g.step, g.slack
				// Frequent ticks give background steps enough dispatch
				// slots; a tight defer limit keeps those steps from
				// starving behind the read stream at high queue depth.
				c.TickEvery, c.BGDeferLimit = 1, 64
				cfgs = append(cfgs, c)
			}
		}
		return cfgs
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "GC policy engine: policy x mode x queue depth (mixed Zipf writes, subFTL)",
			Columns: []string{"policy", "mode", "QD", "IOPS", "read p99", "read p99.9", "req WAF", "GC steps", "pages", "preempts"},
		}
		for i, res := range results {
			g := gcCells[i/len(gcQDs)]
			mode := "whole-block"
			if g.step > 0 {
				mode = fmt.Sprintf("step=%d,bg=%d", g.step, g.slack)
			}
			lat := res.Sched.ReadLat
			t.AddRow(g.name, mode, fmt.Sprintf("%d", gcQDs[i%len(gcQDs)]),
				fmt.Sprintf("%.0f", res.IOPS()),
				fmt.Sprintf("%v", lat.Percentile(0.99).Round(time.Microsecond)),
				fmt.Sprintf("%v", lat.Percentile(0.999).Round(time.Microsecond)),
				f3(res.Stats.AvgRequestWAF()),
				fmt.Sprintf("%d", res.Stats.GCSteps),
				fmt.Sprintf("%d", res.Stats.GCPagesCopied),
				fmt.Sprintf("%d", res.Stats.GCPreemptions))
		}
		t.Note("whole-block = legacy foreground drains; step=N,bg=S copies at most N pages per background step once the pool is within S blocks of the reserve")
		t.Note("every cell reaches byte-identical durable state per seed: victim policy moves GC work in time, not in outcome (see the differential sweep test)")
		return t, nil
	}),
}

// extSubread measures the paper's §7 future-work extension: subpage reads
// at reduced latency, on a read-heavy small-I/O profile.
var extSubread = Experiment{
	ID:  "ext-subread",
	Doc: "subpage-read future-work extension",
	cells: func(o Options) []RunConfig {
		prof := workload.Profile{
			Name:       "read-heavy",
			SmallRatio: 1.0,
			SyncRatio:  1.0,
			ReadRatio:  0.8,
			SmallSizes: []int{1},
			LargeSizes: []int{4},
			HotSpace:   0.2,
			HotAccess:  0.8,
		}
		full, sub := o.cell(KindSub, prof), o.cell(KindSub, prof)
		sub.EnableSubpageRead = true
		return []RunConfig{full, sub}
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "subFTL with the subpage-read extension (80% 4-KB reads)",
			Columns: []string{"device reads", "IOPS", "read bytes moved (MiB)"},
		}
		for i, name := range []string{"full-page reads (paper baseline)", "subpage reads (extension)"} {
			res := results[i]
			t.AddRow(name, fmt.Sprintf("%.0f", res.IOPS()),
				fmt.Sprintf("%.1f", float64(res.Stats.Device.BytesRead)/(1<<20)))
		}
		t.Note("the paper expects subpage reads to help read-latency-sensitive applications; the gain here is sense+transfer time on region hits")
		return t, nil
	}),
}

// extLifetime projects device lifetime from measured erase rates: host
// bytes writable before the rated endurance (nand.RatedPE) is exhausted,
// per FTL, on a sync-small-heavy workload. This is the paper's title claim
// ("improving ... lifetime") made explicit.
var extLifetime = Experiment{
	ID:    "ext-lifetime",
	Doc:   "projected lifetime from erase rates",
	cells: benchmarkCells([]workload.Profile{workload.Sysbench()}, KindCGM, KindFGM, KindSub),
	render: onResults(func(o Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Projected lifetime from erase rates (Sysbench profile)",
			Columns: []string{"FTL", "erases", "erases / host GiB", "projected host TB to rated wear", "vs fgmFTL"},
		}
		tbw := make([]float64, len(results))
		for i, res := range results {
			hostGiB := float64(res.Stats.HostSectorsWritten) * 4096 / (1 << 30)
			erases := float64(res.Stats.Device.Erases)
			if erases == 0 {
				// A very small smoke run may not reach GC on every FTL;
				// the projection is then unbounded rather than wrong.
				t.AddRow(string(res.Kind), "0", "0.00", "inf", "")
				tbw[i] = math.Inf(1)
				continue
			}
			perGiB := erases / hostGiB
			// Total erase budget = rated P/E x block count; lifetime in
			// host bytes = budget / (erases per host byte).
			budget := float64(nand.RatedPE) * float64(o.Geometry.TotalBlocks())
			tbw[i] = budget / perGiB / 1024 // GiB -> TiB
			t.AddRow(string(res.Kind), fmt.Sprintf("%.0f", erases), f2(perGiB), f2(tbw[i]), "")
		}
		if fgmTBW := tbw[1]; fgmTBW > 0 {
			for i := range tbw {
				t.Rows[i][4] = fmt.Sprintf("%+.0f%%", (tbw[i]/fgmTBW-1)*100)
			}
		}
		t.Note("projection: rated-P/E x blocks / (erases per host byte); same device, same workload, erase counts measured")
		t.Note("paper: subFTL improves lifetime 'by up to 177%%' (via its GC-invocation reduction)")
		return t, nil
	}),
}

// lifetimeCell is one operating point of the lifetime-subsystem tables.
type lifetimeCell struct {
	name     string
	policy   string
	lifetime bool
}

// ext-lifetime2's configurations, baseline first.
var lifetime2Cells = []lifetimeCell{
	{"ESP only (fixed deep)", "fixed-deep", false},
	{"ESP + AERO erase", "aero", false},
	{"ESP + AERO + longevity", "aero", true},
}

// extLifetime2 measures the lifetime subsystem end to end on subFTL: the
// ESP-only baseline (full-depth erases, no placement steering) against
// adaptive erase depth alone (AERO) and the full stack (AERO plus the
// longevity predictor's placement steering), on the sync-small-heavy
// Sysbench profile. Erase counts stay workload-determined; what the
// subsystem buys is cheaper erases — effective wear units per erase — and,
// with placement on, less relocation churn feeding those erases.
var extLifetime2 = Experiment{
	ID:  "ext-lifetime2",
	Doc: "adaptive erase depth + longevity placement",
	cells: func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, l := range lifetime2Cells {
			c := benchmarkCfg(o, KindSub, workload.Sysbench())
			c.ErasePolicy, c.Lifetime = l.policy, l.lifetime
			c.MeasureLatency = true
			cfgs = append(cfgs, c)
		}
		return cfgs
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		// The subsystem's contract, enforced at regeneration time: at
		// equal workload the full stack accrues strictly less effective
		// wear than the ESP-only baseline. (A smoke run too small to
		// trigger any erase proves nothing either way and is exempt.)
		if base, full := results[0].Stats.Device, results[2].Stats.Device; base.Erases > 0 && full.WearUnits >= base.WearUnits {
			return nil, fmt.Errorf("ESP+AERO+longevity accrued %.1f wear units vs %.1f for ESP-only; the subsystem must strictly reduce effective wear", full.WearUnits, base.WearUnits)
		}
		t := &Table{
			Title:   "Lifetime subsystem: adaptive erase depth + longevity placement (Sysbench, subFTL)",
			Columns: []string{"configuration", "erases", "shallow", "wear units", "wear/erase", "req WAF", "mean lat", "p99 lat", "steered", "segregated"},
		}
		for i, res := range results {
			d := res.Stats.Device
			perErase := 0.0
			if d.Erases > 0 {
				perErase = d.WearUnits / float64(d.Erases)
			}
			h := res.Latency
			t.AddRow(lifetime2Cells[i].name,
				fmt.Sprintf("%d", d.Erases),
				fmt.Sprintf("%d", d.ShallowErases),
				fmt.Sprintf("%.1f", d.WearUnits),
				f3(perErase),
				f3(res.Stats.AvgRequestWAF()),
				fmt.Sprintf("%v", h.Mean().Round(time.Microsecond)),
				fmt.Sprintf("%v", h.Percentile(0.99).Round(time.Microsecond)),
				fmt.Sprintf("%d", res.Stats.LifetimeSteered),
				fmt.Sprintf("%d", res.Stats.LifetimeSegregated))
		}
		t.Note("wear units = sum of erase depths (effective wear); AERO erases only as deep as the ECC margin at the block's wear requires")
		t.Note("identical acked-durable contents across every row per seed (see the lifetime differential tests); the subsystem moves wear, not data outcomes")
		return t, nil
	}),
}

// abl-lifetime's operating points: erase policy x placement.
var lifetimeAblCells = []lifetimeCell{
	{"fixed-deep", "fixed-deep", false},
	{"fixed-deep", "fixed-deep", true},
	{"aero", "aero", false},
	{"aero", "aero", true},
}

// ablLifetime isolates the two halves of the lifetime subsystem on subFTL:
// erase-depth policy {fixed-deep, aero} crossed with longevity placement
// {off, on}, on a hot/cold-skewed small-write profile where the predictor
// has real structure to find.
var ablLifetime = Experiment{
	ID:  "abl-lifetime",
	Doc: "erase-depth policy x longevity placement",
	cells: func(o Options) []RunConfig {
		prof := workload.Profile{
			Name:       "hotcold-zipf",
			SmallRatio: 0.7,
			SyncRatio:  0.6,
			ReadRatio:  0.2,
			SmallSizes: []int{1, 2},
			LargeSizes: []int{4, 8},
			HotSpace:   0.2,
			HotAccess:  0.8,
		}
		var cfgs []RunConfig
		for _, l := range lifetimeAblCells {
			c := o.cell(KindSub, prof)
			c.LogicalFrac = 0.62
			c.ErasePolicy, c.Lifetime = l.policy, l.lifetime
			cfgs = append(cfgs, c)
		}
		return cfgs
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Lifetime subsystem ablation: erase policy x placement (hot/cold Zipf, subFTL)",
			Columns: []string{"erase policy", "placement", "IOPS", "erases", "wear units", "evictions", "steered", "segregated", "req WAF"},
		}
		for i, res := range results {
			placement := "off"
			if lifetimeAblCells[i].lifetime {
				placement = "on"
			}
			t.AddRow(lifetimeAblCells[i].name, placement,
				fmt.Sprintf("%.0f", res.IOPS()),
				fmt.Sprintf("%d", res.Stats.Device.Erases),
				fmt.Sprintf("%.1f", res.Stats.Device.WearUnits),
				fmt.Sprintf("%d", res.Stats.Evictions),
				fmt.Sprintf("%d", res.Stats.LifetimeSteered),
				fmt.Sprintf("%d", res.Stats.LifetimeSegregated),
				f3(res.Stats.AvgRequestWAF()))
		}
		t.Note("aero scales each erase's depth (and its wear) to the ECC margin the block's effective wear still allows")
		t.Note("placement steers predicted-cold small writes to the full-page region and segregates cold full-page programs onto their own stripe")
		return t, nil
	}),
}

// extLatency reports per-request completion-horizon extensions (a
// saturated-queue latency proxy) for the three FTLs on Varmail: the tail
// percentiles expose foreground GC stalls that mean throughput hides.
var extLatency = Experiment{
	ID:  "ext-latency",
	Doc: "per-request service-demand percentiles",
	cells: func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, kind := range []Kind{KindCGM, KindFGM, KindSub} {
			c := benchmarkCfg(o, kind, workload.Varmail())
			c.MeasureLatency = true
			cfgs = append(cfgs, c)
		}
		return cfgs
	},
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Per-request service demand (Varmail): mean and tail",
			Columns: []string{"FTL", "mean", "p50", "p99", "max"},
		}
		for _, res := range results {
			h := res.Latency
			t.AddRow(string(res.Kind),
				fmt.Sprintf("%v", h.Mean().Round(time.Microsecond)),
				fmt.Sprintf("%v", h.Percentile(0.50).Round(time.Microsecond)),
				fmt.Sprintf("%v", h.Percentile(0.99).Round(time.Microsecond)),
				fmt.Sprintf("%v", h.Max().Round(time.Microsecond)))
		}
		t.Note("completion-horizon extension per request under a saturated queue; GC bursts appear in p99/max")
		return t, nil
	}),
}
