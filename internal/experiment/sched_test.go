package experiment

import (
	"fmt"
	"sync"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/workload"
)

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

// Acceptance: at queue depth 1 with FIFO arbitration the scheduler path
// reports the same IOPS and GC counts as the synchronous path,
// bit-for-bit, for all three FTLs.
func TestSchedulerQD1MatchesSerialPath(t *testing.T) {
	for _, kind := range []Kind{KindCGM, KindFGM, KindSub} {
		t.Run(string(kind), func(t *testing.T) {
			serial, err := Run(tinyRun(kind, mixedZipf()))
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyRun(kind, mixedZipf())
			cfg.QueueDepth = 1
			cfg.Arbitration = "fifo"
			sched, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sched.Elapsed != serial.Elapsed {
				t.Errorf("Elapsed %v, serial %v (IOPS %v vs %v)", sched.Elapsed, serial.Elapsed, sched.IOPS(), serial.IOPS())
			}
			if sched.Stats != serial.Stats {
				t.Errorf("stats diverge:\n sched %+v\nserial %+v", sched.Stats, serial.Stats)
			}
			if sched.Sched == nil || sched.Sched.Completed != int64(serial.Requests) {
				t.Fatalf("scheduler report missing or incomplete: %+v", sched.Sched)
			}
		})
	}
}

// Acceptance: at queue depth >= 8 under mixed read/write Zipf traffic the
// latency report shows a real tail — p99 strictly above p50.
func TestSchedulerQD8TailLatency(t *testing.T) {
	cfg := tinyRun(KindSub, mixedZipf())
	cfg.Requests = 4000
	cfg.QueueDepth = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Sched.HostLat.Summary()
	if h.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	if !(h.P99 > h.P50) {
		t.Errorf("p99 %v not above p50 %v at QD8", h.P99, h.P50)
	}
	if res.Sched.QueueDepth.Count() == 0 || res.Sched.ChipUtil.Count() == 0 {
		t.Error("queue-depth / chip-utilization summaries empty")
	}
}

func TestSchedulerRejectsTrace(t *testing.T) {
	o := tinyOpts()
	cfg := RunConfig{
		Kind:       KindSub,
		Geometry:   o.Geometry,
		Trace:      []workload.Request{{Op: workload.OpWrite, LSN: 0, Sectors: 1}},
		QueueDepth: 4,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("trace accepted on the scheduler path")
	}
}

func TestSchedulerOpenLoopRun(t *testing.T) {
	cfg := tinyRun(KindFGM, mixedZipf())
	cfg.Requests = 1000
	cfg.ArrivalRate = 50000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sched.Completed != int64(cfg.Requests) {
		t.Fatalf("completed %d of %d", res.Sched.Completed, cfg.Requests)
	}
	// Open loop: elapsed covers at least the arrival span (n/rate = 20ms).
	if res.Elapsed.Seconds() < 0.019 {
		t.Errorf("Elapsed %v shorter than the arrival span", res.Elapsed)
	}
}

// Stress test for the CI race job: several full scheduler runs — high
// queue depth, fault injection armed — execute concurrently. Each run
// owns its device, FTL and scheduler, so -race proves the scheduler/
// fault stack shares no hidden mutable state across instances.
func TestSchedulerRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test, skipped with -short")
	}
	configs := make([]RunConfig, 0, 6)
	for i, arb := range []string{"fifo", "read-priority"} {
		for j, qd := range []int{8, 32} {
			fp := fault.DefaultProfile(uint64(100 + 10*i + j))
			cfg := tinyRun(KindSub, mixedZipf())
			cfg.Requests = 2500
			cfg.QueueDepth = qd
			cfg.Arbitration = arb
			cfg.NumQueues = 4
			cfg.FaultProfile = &fp
			cfg.Seed = uint64(i*2 + j)
			configs = append(configs, cfg)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(configs))
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg RunConfig) {
			defer wg.Done()
			res, err := Run(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Sched.Completed != int64(cfg.Requests) {
				errs[i] = fmt.Errorf("completed %d of %d", res.Sched.Completed, cfg.Requests)
			}
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("config %d (%s qd=%d): %v", i, configs[i].Arbitration, configs[i].QueueDepth, err)
		}
	}
}

func TestAblationSchedulerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke, skipped with -short")
	}
	o := tinyOpts()
	o.Requests = 800
	tbl, err := AblationScheduler(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("abl-sched produced %d rows, want 8 (4 depths x 2 arbiters)", len(tbl.Rows))
	}
}
