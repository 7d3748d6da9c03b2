package host_test

import (
	"fmt"
	"testing"

	"espftl/internal/experiment"
	"espftl/internal/host"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// chipGeometry is QuickGeometry (4 chips per channel) with as many
// channels as it takes to reach chips.
func chipGeometry(chips int) nand.Geometry {
	g := experiment.QuickGeometry
	g.Channels = chips / g.ChipsPerChannel
	return g
}

// countingArbiter counts the heads each Pick is handed and the barrier
// evaluations the wrapped policy makes.
type countingArbiter struct {
	host.Arbiter
	picks, heads, maxHeads, barrier int
}

func (a *countingArbiter) Pick(heads []*host.Command, dispatchable func(*host.Command) bool) int {
	a.picks++
	a.heads += len(heads)
	a.maxHeads = max(a.maxHeads, len(heads))
	return a.Arbiter.Pick(heads, func(c *host.Command) bool {
		a.barrier++
		return dispatchable(c)
	})
}

// The scheduler's work per dispatch does not grow with the device: at 8,
// 32 and 128 chips under QD32, Pick is never handed more heads than there
// are commands queued, and a command's completion is read from the device
// resources its transaction touched (its Fanout: the nand journal tests
// show the journal holds exactly those), at most two per device
// operation.
func TestDispatchCostIndependentOfChipCount(t *testing.T) {
	const n, depth = 4000, 32
	for _, chips := range []int{8, 32, 128} {
		t.Run(fmt.Sprintf("chips-%d", chips), func(t *testing.T) {
			dev, f, gen := subRig(t, chipGeometry(chips))
			arb := &countingArbiter{Arbiter: &host.ReadPriority{}}
			s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: arb, TickEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			var (
				prev                  *host.Command
				ops0                  int64
				dispatches, resources int64
			)
			settle := func() {
				if prev == nil {
					return
				}
				ops := dev.OpCount() - ops0
				if int64(prev.Fanout) > 2*ops {
					t.Fatalf("%s seq %d touched %d resources in %d device operations", prev.Class, prev.Seq, prev.Fanout, ops)
				}
				dispatches++
				resources += int64(prev.Fanout)
				prev = nil
			}
			s.SetDispatchHook(func(c *host.Command) {
				settle()
				prev, ops0 = c, dev.OpCount()
			})
			rep, err := s.RunClosedLoop(gen, n, depth)
			if err != nil {
				t.Fatal(err)
			}
			settle()
			if rep.Completed != n {
				t.Fatalf("completed %d of %d", rep.Completed, n)
			}
			if arb.maxHeads > depth {
				t.Errorf("Pick was handed %d heads at queue depth %d", arb.maxHeads, depth)
			}
			g := dev.Geometry()
			t.Logf("%d chips: %.2f heads per Pick (max %d), %.2f resources per dispatch; scanning every queue and resource would visit %d heads and %d resources",
				chips, float64(arb.heads)/float64(arb.picks), arb.maxHeads, float64(resources)/float64(dispatches),
				g.Chips()+1, 2*(g.Chips()+g.Channels))
		})
	}
}

// The barrier's work per dispatch does not grow with the backlog: a head
// the barrier refused is not tested again until the command blocking it
// dispatches, so read-priority over Varmail, whose hot set keeps most
// heads blocked, evaluates the barrier at most twice per host dispatch at
// a 1k, 8k and 32k open-loop backlog and closed loop at QD32. Testing
// every ready head at every Pick took about 47 and 7.5.
func TestBarrierWorkIndependentOfBacklog(t *testing.T) {
	type run func(*host.Scheduler, workload.Generator) (*host.Report, error)
	open := func(n int) run {
		return func(s *host.Scheduler, g workload.Generator) (*host.Report, error) { return s.RunOpenLoop(g, n, 1e9) }
	}
	for _, tc := range []struct {
		name string
		run  run
	}{
		{"open-1k", open(1 << 10)},
		{"open-8k", open(8 << 10)},
		{"open-32k", open(32 << 10)},
		{"closed-qd32", func(s *host.Scheduler, g workload.Generator) (*host.Report, error) {
			return s.RunClosedLoop(g, 8<<10, 32)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, f, gen := subRig(t, experiment.QuickGeometry)
			arb := &countingArbiter{Arbiter: &host.ReadPriority{}}
			s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: arb, TickEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tc.run(s, gen)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != rep.Submitted {
				t.Fatalf("completed %d of %d", rep.Completed, rep.Submitted)
			}
			per := float64(arb.barrier) / float64(rep.Dispatched)
			t.Logf("%.2f barrier evaluations per host dispatch, %.2f heads per Pick", per, float64(arb.heads)/float64(arb.picks))
			if per > 2 {
				t.Errorf("%.2f barrier evaluations per host dispatch, want <= 2", per)
			}
		})
	}
}
