package main

import (
	"fmt"
	"runtime"
	"time"

	"espftl/internal/core"
	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// simKinds is the order the serial-replay workloads run the three FTLs
// in; every FTL sees the identical request stream.
var simKinds = []experiment.Kind{experiment.KindSub, experiment.KindFGM, experiment.KindCGM}

const tickEvery = 64

// replayWindow is the timed window of the serial path: n generated
// requests with a maintenance tick every tickEvery, each request's status
// checked, then a flush. Per request it samples how far the request pushed
// the device's drain horizon — the saturated-queue service latency
// experiment.RunConfig.MeasureLatency defines — as an exact sample.
func replayWindow(st *stack, f ftl.FTL, gen workload.Generator, n int, wantHalf bool) (*window, error) {
	w := &window{reqs: int64(n), virtLat: make([]int64, 0, n)}
	before := f.Stats()
	drain0 := st.dev.DrainTime()
	prev := drain0
	var reqErr error
	done := func(err error) { reqErr = err }
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if ftl.SubmitSync(f, gen.Next(), done); reqErr != nil {
			w.failed++
		}
		now := st.dev.DrainTime()
		w.virtLat = append(w.virtLat, int64(now.Sub(prev)))
		prev = now
		if i%tickEvery == 0 {
			if err := f.Tick(); err != nil {
				return nil, fmt.Errorf("tick at request %d: %w", i, err)
			}
		}
		if wantHalf && i == n/2-1 {
			w.firstHalf = f.Stats().Sub(before)
		}
	}
	if err := f.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	w.wall = time.Since(t0)
	w.elapsed = st.dev.DrainTime().Sub(drain0)
	w.stats = f.Stats().Sub(before)
	return w, nil
}

// simWorkload is one serial-replay workload: a profile and its sizes.
type simWorkload struct {
	profile workload.Profile
	// warm and timed are requests per FTL at the reference run length.
	warm, timed int
}

// run is one repetition: for each FTL in turn, build the experiment
// device, fill 89 % of the logical space, warm up, then replay the timed
// window. Set-up covers everything before the window.
func (sw simWorkload) run(rc *runCtx) (*rep, error) {
	r := &rep{dig: newDigest()}
	warm, timed := rc.count(sw.warm), rc.count(sw.timed)
	windows := map[experiment.Kind]*window{}
	for _, kind := range simKinds {
		runtime.GC() // the previous stack is garbage: keep it out of this one's peak memory
		t0 := time.Now()
		st, err := buildStack(kind, rc.geometry(), gc.Options{}, 0.89)
		if err != nil {
			return nil, err
		}
		f := st.f
		var tf *tracedFTL
		var phase *spanSource
		if rc.tr != nil {
			if tf, err = newTracedFTL(st.f, rc.tr, "ftl."+kindKey(kind)); err != nil {
				return nil, err
			}
			f, phase = tf, tf.src
		}
		sp := phase.begin("precondition")
		if err := st.precondition(); err != nil {
			return nil, err
		}
		phase.end(sp)
		gen, err := st.generator(sw.profile, rc.seed)
		if err != nil {
			return nil, err
		}
		sp = phase.begin("warmup")
		if err := experiment.ReplayGenerator(f, gen, warm, tickEvery); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", kind, err)
		}
		st.quiesce()
		phase.end(sp)
		setup := time.Since(t0)

		tf.resume()
		sp = phase.begin("timed")
		m := startMeter()
		w, err := replayWindow(st, f, gen, timed, rc.tr != nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kind, err)
		}
		m.stop()
		phase.end(sp)
		tf.pause()
		w.finishLat()
		r.addWindow(w, setup, m)
		windows[kind] = w
		if err := st.f.Check(); err != nil {
			return nil, fmt.Errorf("%s invariant check after the run: %w", kind, err)
		}
		if kind == experiment.KindSub {
			r.sub = w
		}
		if rc.tr == nil {
			continue
		}
		if kind == experiment.KindSub {
			if err := nandLayer(rc.layer, st.dev, w, tf.busy); err != nil {
				return nil, err
			}
			fresh, err := st.generator(sw.profile, rc.seed)
			if err != nil {
				return nil, err
			}
			rc.layer["workload.gen_ns_per_req"] = measureGen(fresh, rc.count(microIters))
		}
		if err := ftlLayer(rc, st, w, callStatsOf(tf), tf.src); err != nil {
			return nil, err
		}
	}
	if rc.tr != nil {
		sub, fgmW := windows[experiment.KindSub], windows[experiment.KindFGM]
		rc.layer["paper.virt_iops_sub_over_fgm"] = ratio(sub.virtIOPS(), fgmW.virtIOPS())
		rc.layer["paper.virt_gc_fgm_over_sub"] = ratio(float64(fgmW.stats.GCInvocations), float64(sub.stats.GCInvocations))
	}
	return r, nil
}

// ftlLayer derives one FTL's per-layer metrics from its timed window, the
// timing wrapper and a remount of the end-of-run device.
func ftlLayer(rc *runCtx, st *stack, w *window, cs callStats, phase *spanSource) error {
	m := rc.layer
	p := "ftl." + kindKey(st.kind) + "."
	s := w.stats
	reqs := float64(w.reqs)
	kreq := reqs / 1000
	m[p+"ns_per_req"] = ratio(float64(cs.busyNS), reqs)
	m[p+"write_ns"] = cs.meanNS[callWrite]
	m[p+"read_ns"] = cs.meanNS[callRead]
	m[p+"tick_ns"] = cs.meanNS[callTick]
	m[p+"call_p99_ns"] = float64(cs.p99NS)
	m[p+"call_max_us"] = float64(cs.maxNS) / 1e3
	m[p+"stall_share"] = cs.stallShare
	m[p+"gc_invocations_per_kreq"] = ratio(float64(s.GCInvocations), kreq)
	m[p+"gc_moved_sectors_per_req"] = ratio(float64(s.GCMovedSectors), reqs)
	m[p+"gc_steps"] = float64(s.GCSteps)
	m[p+"gc_preemptions"] = float64(s.GCPreemptions)
	m[p+"rmw_per_kreq"] = ratio(float64(s.RMWOps), kreq)
	m[p+"buffer_absorbed_share"] = ratio(float64(s.BufferAbsorbed), float64(s.HostWriteReqs))
	m[p+"read_buffer_hit_share"] = ratio(float64(s.ReadBufferHits), float64(s.HostReadReqs))
	m[p+"req_waf"] = s.AvgRequestWAF()
	m[p+"waf"] = s.OverallWAF()
	if w.firstHalf.HostSectorsWritten > 0 {
		second := s.Sub(w.firstHalf)
		m[p+"waf_drift"] = ratio(second.OverallWAF(), w.firstHalf.OverallWAF()) - 1
	}
	m[p+"mapping_bytes"] = float64(s.MappingBytes)
	if st.kind == experiment.KindSub {
		m[p+"round_advances_per_kreq"] = ratio(float64(s.RoundAdvances), kreq)
		m[p+"sub_shifts_per_kreq"] = ratio(float64(s.SubShifts), kreq)
		m[p+"evictions_per_kreq"] = ratio(float64(s.Evictions), kreq)
		m[p+"retention_moves"] = float64(s.RetentionMoves)
		if sub, ok := st.f.(*core.FTL); ok {
			g := st.dev.Geometry()
			m[p+"region_valid_share"] = ratio(float64(sub.RegionValid()), float64(sub.SubRegionBlocks()*g.SubpagesPerBlock()))
		}
	}
	sp := phase.begin("recover")
	ms, virtMS, pages, err := measureRecover(st, rc.mounts())
	phase.end(sp)
	if err != nil {
		return err
	}
	m[p+"recover_ms"], m[p+"recover_virt_ms"], m[p+"recover_pages_scanned"] = ms, virtMS, pages
	return nil
}

// nandLayer derives the device-level metrics of subFTL's timed window.
func nandLayer(m map[string]float64, dev *nand.Device, w *window, ftlBusyNS int64) error {
	c := w.stats.Device
	reqs := float64(w.reqs)
	m["nand.page_reads_per_req"] = ratio(float64(c.PageReads), reqs)
	m["nand.page_programs_per_req"] = ratio(float64(c.PagePrograms), reqs)
	m["nand.sub_programs_per_req"] = ratio(float64(c.SubPrograms), reqs)
	m["nand.erases_per_kreq"] = ratio(float64(c.Erases)*1000, reqs)
	util := dev.ChipUtilization()
	lo, sum := 1.0, 0.0
	for _, u := range util {
		sum += u
		if u < lo {
			lo = u
		}
	}
	m["nand.chip_util_mean"] = ratio(sum, float64(len(util)))
	m["nand.chip_util_min"] = lo
	k, err := measureNAND(dev.Geometry())
	if err != nil {
		return err
	}
	m["nand.program_ns"], m["nand.subprogram_ns"], m["nand.read_ns"], m["nand.erase_ns"] = k.program, k.subprogram, k.read, k.erase
	est := float64(c.PagePrograms)*k.program + float64(c.SubPrograms)*k.subprogram +
		float64(c.PageReads+c.SubpageReads)*k.read + float64(c.Erases)*k.erase
	m["nand.est_host_share"] = ratio(est, float64(ftlBusyNS))
	return nil
}
