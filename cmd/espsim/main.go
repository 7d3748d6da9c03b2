// Command espsim runs one simulation: a chosen FTL, a chosen workload
// profile (or a trace file), a preconditioned device, and a stats report.
//
// Examples:
//
//	espsim -ftl subFTL -profile varmail -requests 50000
//	espsim -ftl fgmFTL -rsmall 0.8 -rsynch 1.0
//	espsim -ftl subFTL -trace workload.trace
//	espsim -ftl subFTL -profile ycsb -qd 16 -arb read-priority
//	espsim -ftl subFTL -profile varmail -rate 80000
//	espsim -ftl subFTL -spo 5000 -spo-torn
//
// Experiment and ablation tables are espbench's (espbench -run ID).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/fault"
	"espftl/internal/metrics"
	"espftl/internal/perf"
	"espftl/internal/trace"
	"espftl/internal/workload"
)

func main() {
	policy := experiment.BindPolicyFlags(flag.CommandLine, "FTL under test: cgmFTL, fgmFTL or subFTL", "use the full-size device")
	profile := flag.String("profile", "varmail", "workload profile: sysbench, varmail, postmark, ycsb, tpc-c")
	rsmall := flag.Float64("rsmall", -1, "use the synthetic sweep profile with this r_small (overrides -profile)")
	rsynch := flag.Float64("rsynch", 1.0, "r_synch for the sweep profile")
	tracePath := flag.String("trace", "", "replay this text trace file instead of a profile")
	requests := flag.Int("requests", 50000, "measured request count (profiles only)")
	seed := flag.Uint64("seed", 1, "workload seed")
	subFrac := flag.Float64("subregion", 0.20, "subFTL subpage-region fraction")
	subread := flag.Bool("subread", false, "enable the subpage-read device extension")
	faults := flag.Bool("faults", false, "arm the fault injector (default profile) and the recovery stack")
	faultSeed := flag.Uint64("fault-seed", 42, "fault injector seed (deterministic per seed)")
	faultRead := flag.Float64("fault-read", -1, "read-disturb probability per subpage sense (-1 = profile default)")
	faultProgram := flag.Float64("fault-program", -1, "program-failure probability per program op (-1 = profile default)")
	faultErase := flag.Float64("fault-erase", -1, "erase-failure probability per erase op (-1 = profile default)")
	faultFactory := flag.Float64("fault-factory", -1, "factory-bad block fraction (-1 = profile default)")
	qd := flag.Int("qd", 0, "closed-loop queue depth; > 0 runs the host scheduler (1 = serial-equivalent)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s; > 0 runs the host scheduler (overrides -qd)")
	queues := flag.Int("queues", 1, "submission-queue lanes for the host scheduler")
	spo := flag.Int64("spo", -1, "cut power this many device operations into the measured phase, then remount and report recovery (-1 = off)")
	spoTorn := flag.Bool("spo-torn", false, "make the power cut tear the in-flight program (with -spo)")
	spoSweep := flag.Int("spo-sweep", 0, "run the SPO experiment once per cut index in [0,N), fanned out over the worker pool, and summarize recovery")
	workers := flag.Int("workers", 0, "experiment worker-pool size for sweeps (0 = GOMAXPROCS; 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	experiment.SetWorkers(*workers)
	prof, err := perf.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fatal(err)
		}
	}()

	cfg := *policy
	cfg.Requests = *requests
	cfg.Seed = *seed
	cfg.SubRegionFrac = *subFrac
	cfg.EnableSubpageRead = *subread
	cfg.QueueDepth = *qd
	cfg.ArrivalRate = *rate
	cfg.NumQueues = *queues
	if *faults {
		p := fault.DefaultProfile(*faultSeed)
		if *faultRead >= 0 {
			p.ReadDisturbProb = *faultRead
		}
		if *faultProgram >= 0 {
			p.ProgramFailProb = *faultProgram
		}
		if *faultErase >= 0 {
			p.EraseFailProb = *faultErase
		}
		if *faultFactory >= 0 {
			p.FactoryBadFrac = *faultFactory
		}
		cfg.FaultProfile = &p
	}
	switch {
	case *tracePath != "":
		reqs, err := trace.ReadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		// Fail early with guidance when the trace addresses more space
		// than the simulated drive exports.
		var maxEnd int64
		for _, r := range reqs {
			if r.Op != workload.OpAdvance && r.LSN+int64(r.Sectors) > maxEnd {
				maxEnd = r.LSN + int64(r.Sectors)
			}
		}
		cfg.Trace = reqs
		_, _, space, err := experiment.Build(cfg)
		if err != nil {
			fatal(err)
		}
		if maxEnd > space {
			fatal(fmt.Errorf("trace addresses %d sectors but the drive exports %d; rerun tracegen with -sectors <= %d or use -full", maxEnd, space, space))
		}
	default:
		p, err := workload.Select(*profile, *rsmall, *rsynch)
		if err != nil {
			fatal(err)
		}
		cfg.Profile = p
	}

	if *spoSweep > 0 {
		start := time.Now()
		results, err := experiment.SweepSPO(cfg, *spoSweep)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(start)
		var crashed, torn, live, adopted int64
		var mountTotal, mountMax time.Duration
		for _, r := range results {
			if r.Crashed {
				crashed++
			}
			if r.Torn && r.Crashed {
				torn++
			}
			live += r.Mount.LiveSectors
			adopted += int64(r.Mount.BlocksAdopted)
			d := time.Duration(r.Mount.Duration)
			mountTotal += d
			if d > mountMax {
				mountMax = d
			}
		}
		n := len(results)
		fmt.Printf("%s SPO sweep: %d cuts (%d crashed, %d torn) in %v wall on %d workers\n",
			cfg.Kind, n, crashed, torn, wall.Round(time.Millisecond), experiment.Workers())
		fmt.Printf("  recovery          every cut remounted and passed invariants\n")
		fmt.Printf("  mount time        mean %v, max %v (virtual)\n",
			(mountTotal / time.Duration(n)).Round(time.Microsecond), mountMax.Round(time.Microsecond))
		fmt.Printf("  recovered         %.1f live sectors and %.1f adopted blocks per cut (mean)\n",
			float64(live)/float64(n), float64(adopted)/float64(n))
		return
	}

	if *spo >= 0 {
		res, err := experiment.RunSPO(cfg, *spo, *spoTorn)
		if err != nil {
			fatal(err)
		}
		m := res.Mount
		fmt.Printf("%s sudden power off\n", res.Kind)
		if res.Crashed {
			cut := "clean cut at op boundary"
			if res.Torn {
				cut = "mid-program tear"
			}
			fmt.Printf("  power cut         device op %d (%s) after %d requests\n", res.CutOp, cut, res.Requests)
		} else {
			fmt.Printf("  power cut         never reached (workload finished after %d requests); clean remount\n", res.Requests)
		}
		fmt.Printf("  mount time        %v (single OOB scan, %d pages)\n", m.Duration, m.PagesScanned)
		fmt.Printf("  recovered         %d live sectors in %d adopted blocks\n", m.LiveSectors, m.BlocksAdopted)
		fmt.Printf("  discarded         %d stale copies, %d torn subpage slots   maxSeq %d\n", m.StaleSubpages, m.TornPages, m.MaxSeq)
		return
	}

	res, err := experiment.Run(cfg)
	if err != nil {
		fatal(err)
	}
	s := res.Stats
	fmt.Printf("%s on %s\n", res.Kind, res.Profile)
	fmt.Printf("  requests          %d in %v virtual -> %.0f IOPS\n", res.Requests, res.Elapsed, res.IOPS())
	fmt.Printf("  host writes/reads %d / %d (small writes %d)\n", s.HostWriteReqs, s.HostReadReqs, s.SmallWriteReqs)
	fmt.Printf("  request WAF       %.3f   overall WAF %.3f\n", s.AvgRequestWAF(), s.OverallWAF())
	fmt.Printf("  GC invocations    %d (moved %d sectors)   erases %d\n", s.GCInvocations, s.GCMovedSectors, s.Device.Erases)
	if s.GCSteps > 0 {
		fmt.Printf("  GC engine         %s policy: %d steps, %d pages copied, %d preemptions\n",
			s.GCPolicy, s.GCSteps, s.GCPagesCopied, s.GCPreemptions)
	}
	fmt.Printf("  RMW ops           %d\n", s.RMWOps)
	fmt.Printf("  erase policy      %s: %d shallow of %d erases, %.1f wear units (%.2f blocks mean wear, p99 %.1f)\n",
		s.ErasePolicy, s.Device.ShallowErases, s.Device.Erases, s.Device.WearUnits, s.Wear.WearMean, s.Wear.WearP99)
	if s.LifetimeObserves > 0 {
		fmt.Printf("  longevity         %d observed writes: %d hot / %d cold / %d unknown, %d steered, %d segregated\n",
			s.LifetimeObserves, s.LifetimeHotWrites, s.LifetimeColdWrites, s.LifetimeUnknownWrites,
			s.LifetimeSteered, s.LifetimeSegregated)
	}
	if res.Kind == experiment.KindSub {
		fmt.Printf("  subFTL: shifts %d  advances %d  evictions %d  retention moves %d  reclaims %d\n",
			s.SubShifts, s.RoundAdvances, s.Evictions, s.RetentionMoves, s.RegionReclaims)
		fmt.Printf("  subFTL region:    %d blocks, %d live subpages\n", res.SubRegionBlocks, res.SubRegionValid)
	}
	fmt.Printf("  mapping memory    %.1f KiB\n", float64(s.MappingBytes)/1024)
	fmt.Printf("  flash programs    %d full / %d subpage passes, %d page reads\n",
		s.Device.PagePrograms, s.Device.SubPrograms, s.Device.PageReads)
	if *faults {
		fmt.Printf("  recovery          %d retries over %d reads (%d exhausted), %d program-fail moves, %d scrub rewrites\n",
			s.Device.ReadRetries, s.Device.RetriedReads, s.Device.RetryFailures, s.ProgramFailMoves, s.ScrubRewrites)
		fmt.Printf("  bad blocks        %d retired (factory + grown), %d erase failures, %d read failures\n",
			s.GrownBadBlocks, s.Device.EraseFailures, s.Device.ReadFailures)
		if res.RetryHist != nil && res.RetryHist.Count() > 0 {
			fmt.Printf("  retries/read      %s\n", res.RetryHist)
			fmt.Printf("  retry quantiles   p50=%d p99=%d max=%d\n",
				res.RetryHist.Quantile(0.50), res.RetryHist.Quantile(0.99), res.RetryHist.Quantile(1))
		}
	}
	if r := res.Sched; r != nil {
		fmt.Printf("host scheduler (%s, %s)\n", r.Arbiter, loopDesc(*rate, *qd))
		fmt.Printf("  commands          %d submitted, %d completed, %d background ticks\n",
			r.Submitted, r.Completed, r.Background)
		for _, row := range []struct {
			name string
			h    interface{ Summary() metrics.Summary }
		}{
			{"all", r.HostLat},
			{"read", r.ReadLat},
			{"write", r.WriteLat},
		} {
			s := row.h.Summary()
			if s.Count == 0 {
				continue
			}
			fmt.Printf("  %-5s latency     p50=%v p95=%v p99=%v p99.9=%v max=%v (n=%d)\n",
				row.name, s.P50, s.P95, s.P99, s.P999, s.Max, s.Count)
		}
		fmt.Printf("  out of order      %d completions, %d reads promoted, %d background deferrals\n",
			r.OutOfOrder, r.ReadsPromoted, r.BackgroundDeferred)
		fmt.Printf("  queue depth       mean %.1f, peak %.0f (%d samples)\n",
			r.QueueDepth.MeanValue(), r.QueueDepth.MaxValue(), r.QueueDepth.Count())
		fmt.Printf("  chip utilization  mean %.1f%%, peak %.1f%% (%d samples)\n",
			100*r.ChipUtil.MeanValue(), 100*r.ChipUtil.MaxValue(), r.ChipUtil.Count())
	}
}

// loopDesc names the driving discipline for the report header.
func loopDesc(rate float64, qd int) string {
	if rate > 0 {
		return fmt.Sprintf("open loop @ %.0f req/s", rate)
	}
	return fmt.Sprintf("closed loop @ QD %d", qd)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "espsim:", err)
	os.Exit(1)
}
