package host_test

import (
	"fmt"
	"testing"

	"espftl/internal/experiment"
	"espftl/internal/host"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// benchScheduler times run on a fresh preconditioned stack per iteration
// (set-up untimed) and reports host nanoseconds per request: FTL and NAND
// model included, so the figure to watch is how it moves with the backlog,
// not its absolute value.
func benchScheduler(b *testing.B, geo nand.Geometry, requests int, run func(*host.Scheduler, workload.Generator) (*host.Report, error)) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, f, gen := subRig(b, geo)
		s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: &host.ReadPriority{}, TickEvery: 64})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := run(s, gen)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != int64(requests) {
			b.Fatalf("completed %d of %d", rep.Completed, requests)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*requests), "ns/req")
}

// BenchmarkSchedulerClosedQD32 is the closed-loop operating point of the
// host-qd32 benchmark workload.
func BenchmarkSchedulerClosedQD32(b *testing.B) {
	const n = 16000
	benchScheduler(b, experiment.QuickGeometry, n, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) {
		return s.RunClosedLoop(g, n, 32)
	})
}

// BenchmarkSchedulerOpenBacklog offers the whole run at once (10^9
// arrivals per virtual second), so the scheduler works against a backlog
// of nearly n commands. ns/req must stay flat from 1k to 32k: every
// per-command cost of the scheduler is independent of the queue length.
func BenchmarkSchedulerOpenBacklog(b *testing.B) {
	for _, n := range []int{1 << 10, 8 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			benchScheduler(b, experiment.QuickGeometry, n, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) {
				return s.RunOpenLoop(g, n, 1e9)
			})
		})
	}
}

// BenchmarkSchedulerChips is the closed QD32 point at 8, 32 and 128 chips.
// The FTL's work per request is about the same at every size, so ns/req
// should stay flat: nothing the scheduler does per dispatch scales with
// the chip count.
func BenchmarkSchedulerChips(b *testing.B) {
	const n = 16000
	for _, chips := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("chips-%d", chips), func(b *testing.B) {
			benchScheduler(b, chipGeometry(chips), n, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) {
				return s.RunClosedLoop(g, n, 32)
			})
		})
	}
}
