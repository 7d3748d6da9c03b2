package main

import (
	"fmt"
	"runtime"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/host"
	"espftl/internal/workload"
)

// hostGC is the collector configuration of the scheduler workloads:
// greedy victims, 8-page incremental steps, background steps within 8
// blocks of the reserve.
var hostGC = gc.Options{Policy: "greedy", StepPages: 8, BackgroundSlack: 8}

const (
	hostDepth  = 32
	hostQueues = 4
	// openLimitNS is the latency limit of the arrival-rate ladder: a rate
	// is sustained when the virtual p99 stays at or below it and the
	// device drains as fast as requests arrive.
	openLimitNS = 20e6
)

// hostWorkload drives the event-driven host scheduler: closed loop at
// hostDepth when rate is 0, else open loop at rate requests per virtual
// second.
type hostWorkload struct {
	profile     workload.Profile
	warm, timed int
	rate        float64
	// kinds run in every repetition; contrast kinds only in the traced
	// one, for per-layer metrics.
	kinds, contrast []experiment.Kind
}

// latencyTap collects every host command's exact virtual latency through
// the scheduler's dispatch hook. The scheduler stamps a command's
// completion time while dispatching it, so each command is read when the
// next one is dispatched.
//
// The hook is the only way to a Command's times from outside the
// scheduler, and it is not free: with one set, Scheduler.complete stops
// recycling background-tick Commands. Every repetition carries it, so the
// host-* numbers describe a path that allocates 0.07 % more than
// production's and reads about 2 % slower (README, defect f).
type latencyTap struct {
	prev *host.Command
	lat  []int64
	// atHalf, when set, snapshots the FTL's counters as the middle host
	// command is dispatched (the steady-state check of traced runs).
	atHalf func() ftl.Stats
	n      int
	half   ftl.Stats
}

func (t *latencyTap) observe(c *host.Command) {
	t.flush()
	if c.Class == host.ClassBackground {
		return
	}
	t.prev = c
	if t.n++; t.atHalf != nil && t.n == cap(t.lat)/2 {
		t.half = t.atHalf()
	}
}

func (t *latencyTap) flush() {
	if t.prev != nil {
		t.lat = append(t.lat, int64(t.prev.Complete.Sub(t.prev.Arrival)))
		t.prev = nil
	}
}

func newScheduler(st *stack, f ftl.FTL, arbiter string, queues int) (*host.Scheduler, error) {
	arb, err := host.NewArbiter(arbiter)
	if err != nil {
		return nil, err
	}
	return host.New(st.dev, f, host.Config{Queues: queues, Arbiter: arb, TickEvery: tickEvery})
}

// hostRun is one stack measured under the scheduler.
type hostRun struct {
	st    *stack
	w     *window
	rep   *host.Report
	tf    *tracedFTL // nil when untraced
	setup time.Duration
	m     meter
}

// hostWindow builds, warms and measures one stack under the scheduler.
// The warm-up runs closed loop on a scheduler of its own: a Scheduler is
// spent after one run.
func (hw hostWorkload) hostWindow(rc *runCtx, kind experiment.Kind, rate float64, timed int) (*hostRun, error) {
	runtime.GC() // the previous stack is garbage: keep it out of this one's peak memory
	t0 := time.Now()
	st, err := buildStack(kind, rc.geometry(), hostGC, 0.89)
	if err != nil {
		return nil, err
	}
	hr := &hostRun{st: st}
	f := st.f
	var phase *spanSource
	if rc.tr != nil {
		if hr.tf, err = newTracedFTL(st.f, rc.tr, "ftl."+kindKey(kind)); err != nil {
			return nil, err
		}
		f, phase = hr.tf, hr.tf.src
	}
	sp := phase.begin("precondition")
	if err := st.precondition(); err != nil {
		return nil, err
	}
	phase.end(sp)
	gen, err := st.generator(hw.profile, rc.seed)
	if err != nil {
		return nil, err
	}
	sp = phase.begin("warmup")
	warmSched, err := newScheduler(st, f, "read-priority", hostQueues)
	if err != nil {
		return nil, err
	}
	if _, err := warmSched.RunClosedLoop(gen, rc.count(hw.warm), hostDepth); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", kind, err)
	}
	st.quiesce()
	phase.end(sp)
	sched, err := newScheduler(st, f, "read-priority", hostQueues)
	if err != nil {
		return nil, err
	}
	tap := &latencyTap{lat: make([]int64, 0, timed)}
	sched.SetDispatchHook(tap.observe)
	hr.setup = time.Since(t0)
	before := f.Stats()
	if rc.tr != nil {
		tap.atHalf = func() ftl.Stats { return st.f.Stats().Sub(before) }
	}

	hr.tf.resume()
	sp = phase.begin("timed")
	w := &window{reqs: int64(timed)}
	drain0 := st.dev.DrainTime()
	hr.m = startMeter()
	t1 := time.Now()
	if rate > 0 {
		hr.rep, err = sched.RunOpenLoop(gen, timed, rate)
	} else {
		hr.rep, err = sched.RunClosedLoop(gen, timed, hostDepth)
	}
	if err == nil {
		err = f.Flush()
	}
	w.wall = time.Since(t1)
	hr.m.stop()
	phase.end(sp)
	hr.tf.pause()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	tap.flush()
	w.failed = w.reqs - hr.rep.Completed + hr.rep.Errors
	w.elapsed = st.dev.DrainTime().Sub(drain0)
	w.stats = f.Stats().Sub(before)
	w.virtLat = tap.lat
	w.firstHalf = tap.half
	w.finishLat()
	hr.w = w
	if err := st.f.Check(); err != nil {
		return nil, fmt.Errorf("%s invariant check after the run: %w", kind, err)
	}
	return hr, nil
}

func (hw hostWorkload) run(rc *runCtx) (*rep, error) {
	r := &rep{dig: newDigest()}
	timed := rc.count(hw.timed)
	kinds := hw.kinds
	if rc.tr != nil {
		kinds = append(append([]experiment.Kind(nil), hw.kinds...), hw.contrast...)
	}
	var fgmW *window
	for i, kind := range kinds {
		hr, err := hw.hostWindow(rc, kind, hw.rate, timed)
		if err != nil {
			return nil, err
		}
		if i < len(hw.kinds) {
			r.addWindow(hr.w, hr.setup, hr.m)
			r.dig.add(hr.rep.Completed, hr.rep.OutOfOrder, hr.rep.Background)
		}
		switch kind {
		case experiment.KindSub:
			r.sub = hr.w
		case experiment.KindFGM:
			fgmW = hr.w
		}
		if rc.tr == nil {
			continue
		}
		m := rc.layer
		if kind == experiment.KindSub {
			if err := nandLayer(m, hr.st.dev, hr.w, hr.tf.busy); err != nil {
				return nil, err
			}
			hostLayer(m, hr)
			fresh, err := hr.st.generator(hw.profile, rc.seed)
			if err != nil {
				return nil, err
			}
			m["workload.gen_ns_per_req"] = measureGen(fresh, rc.count(microIters))
		}
		if kind == experiment.KindFGM && hw.rate > 0 {
			m["host.open.fgm.p99_us"] = float64(hr.w.virtP99) / 1e3
		}
		if err := ftlLayer(rc, hr.st, hr.w, callStatsOf(hr.tf), hr.tf.src); err != nil {
			return nil, err
		}
	}
	if rc.tr != nil {
		if fgmW != nil {
			rc.layer["paper.virt_iops_sub_over_fgm"] = ratio(r.sub.virtIOPS(), fgmW.virtIOPS())
		}
		if hw.rate > 0 {
			if err := hw.rateLadder(rc, r.sub, timed); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// hostLayer derives the scheduler's per-layer metrics from its report.
func hostLayer(m map[string]float64, hr *hostRun) {
	r := hr.rep
	reqs := float64(hr.w.reqs)
	kreq := reqs / 1000
	m["host.self_ns_per_req"] = ratio(float64(hr.w.wall)-float64(hr.tf.busy), reqs)
	m["host.out_of_order_share"] = ratio(float64(r.OutOfOrder), float64(r.Completed))
	m["host.reads_promoted_per_kreq"] = ratio(float64(r.ReadsPromoted), kreq)
	m["host.bg_deferred_per_kreq"] = ratio(float64(r.BackgroundDeferred), kreq)
	m["host.background_cmds"] = float64(r.Background)
	// The report's own histograms have 19 %-wide buckets; these four
	// resolve only steps of that size.
	m["host.read_lat_p99_us"] = float64(r.ReadLat.Percentile(0.99)) / 1e3
	m["host.write_lat_p99_us"] = float64(r.WriteLat.Percentile(0.99)) / 1e3
	m["host.read_wait_p99_us"] = float64(r.ReadWait.Percentile(0.99)) / 1e3
	m["host.write_wait_p99_us"] = float64(r.WriteWait.Percentile(0.99)) / 1e3
	m["host.fanout_mean"] = r.Fanout.Mean()
	m["host.qdepth_mean"] = r.QueueDepth.MeanValue()
	m["host.chip_util_mean"] = r.ChipUtil.MeanValue()
}

// rateLadder reports subFTL's virtual p99 at half the workload's arrival
// rate, at the rate itself (the traced window just measured) and at twice
// it, and the highest rung that meets the latency limit without a growing
// backlog.
func (hw hostWorkload) rateLadder(rc *runCtx, main *window, timed int) error {
	best := 0.0
	plain := &runCtx{seed: rc.seed, scale: rc.scale, smoke: rc.smoke}
	for _, rate := range []float64{hw.rate / 2, hw.rate, hw.rate * 2} {
		w := main
		if rate != hw.rate {
			hr, err := hw.hostWindow(plain, experiment.KindSub, rate, timed)
			if err != nil {
				return fmt.Errorf("rate ladder at %.0f/s: %w", rate, err)
			}
			w = hr.w
		}
		rc.layer[fmt.Sprintf("host.open.p99_us.r%.0f", rate)] = float64(w.virtP99) / 1e3
		arrivals := float64(timed) / rate // virtual seconds the arrivals span
		keepsPace := w.elapsed.Seconds() <= arrivals*1.02+openLimitNS/1e9
		if float64(w.virtP99) <= openLimitNS && keepsPace {
			best = rate
		}
	}
	rc.layer["host.open.max_rate_ok"] = best
	return nil
}
