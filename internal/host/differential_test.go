package host_test

import (
	"math/rand"
	"testing"

	"espftl/internal/host"
	"espftl/internal/workload"
)

// hazardGen is the stream the hazard index has to get right: multi-sector
// reads, writes and trims whose ranges overlap, most of them landing on a
// 48-sector Zipf hot set so that several readers and several writers pend
// on one sector at once, with a flush every ~40 requests.
type hazardGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	fill int64
}

func newHazardGen(fill int64, seed int64) *hazardGen {
	rng := rand.New(rand.NewSource(seed))
	return &hazardGen{rng: rng, zipf: rand.NewZipf(rng, 1.3, 2, 47), fill: fill}
}

func (g *hazardGen) Name() string { return "hazards" }

func (g *hazardGen) Next() workload.Request {
	p := g.rng.Intn(1000)
	if p < 25 {
		return workload.Request{Op: workload.OpFlush}
	}
	sectors := 1 + g.rng.Intn(4)
	if g.rng.Intn(4) == 0 {
		sectors = 5 + g.rng.Intn(12)
	}
	lsn := g.fill / 3
	if g.rng.Intn(5) > 0 {
		lsn += int64(g.zipf.Uint64())
	} else {
		lsn = g.rng.Int63n(g.fill - int64(sectors))
	}
	switch {
	case p < 450:
		return workload.Request{Op: workload.OpRead, LSN: lsn, Sectors: sectors}
	case p < 520:
		return workload.Request{Op: workload.OpTrim, LSN: lsn, Sectors: sectors}
	}
	return workload.Request{Op: workload.OpWrite, LSN: lsn, Sectors: sectors, Sync: p%2 == 0}
}

// Every barrier, read-promotion and out-of-order decision of the indexed
// scheduler equals the original linear scan over the live queues, checked
// call by call (host.AttachOracle) in every driver and under both arbiters.
func TestSchedulerMatchesLinearScan(t *testing.T) {
	const n = 3000
	modes := []struct {
		name       string
		minBacklog int
		run        func(*host.Scheduler, workload.Generator) (*host.Report, error)
	}{
		{"closed-qd1", 1, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) { return s.RunClosedLoop(g, n, 1) }},
		{"closed-qd8", 8, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) { return s.RunClosedLoop(g, n, 8) }},
		{"closed-qd32", 32, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) { return s.RunClosedLoop(g, n, 32) }},
		// A million arrivals per virtual second outrun the device at once:
		// nearly the whole run is queued before the first command retires.
		{"open-backlog", 5000, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) { return s.RunOpenLoop(g, 2*n, 1e6) }},
		// A pre-filled, closed channel: the external loop admits everything
		// that is queued before it retires anything, with no producer to race.
		{"external-prefilled", n - 100, func(s *host.Scheduler, g workload.Generator) (*host.Report, error) {
			sub := make(chan host.ExtSubmission, n)
			for i := 0; i < n; i++ {
				sub <- host.ExtSubmission{Req: g.Next()}
			}
			close(sub)
			return s.RunExternal(sub, nil)
		}},
	}
	for _, arbName := range []string{"fifo", "read-priority"} {
		for _, m := range modes {
			t.Run(arbName+"/"+m.name, func(t *testing.T) {
				dev, f, fill := newRig(t, "subFTL")
				arb, err := host.NewArbiter(arbName)
				if err != nil {
					t.Fatal(err)
				}
				s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: arb, TickEvery: 64})
				if err != nil {
					t.Fatal(err)
				}
				o := host.AttachOracle(t, s)
				rep, err := m.run(s, newHazardGen(fill, 5))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Completed != rep.Submitted || rep.Errors != 0 {
					t.Fatalf("completed %d of %d, %d errors", rep.Completed, rep.Submitted, rep.Errors)
				}
				if o.MaxBacklog < m.minBacklog {
					t.Errorf("backlog peaked at %d commands, want >= %d", o.MaxBacklog, m.minBacklog)
				}
				t.Logf("%d barrier checks (%d blocked by a hazard), %d promoted reads, %d out-of-order, backlog %d, %d readers and as many writers on one sector",
					o.Barrier, o.Blocked, o.Promoted, o.OutOfOrder, o.MaxBacklog, o.MaxContended)
				if m.minBacklog > 1 {
					if o.Blocked == 0 || o.OutOfOrder == 0 {
						t.Errorf("run never exercised the barrier (%d blocked) or out-of-order retirement (%d)", o.Blocked, o.OutOfOrder)
					}
					if arbName == "read-priority" && o.Promoted == 0 {
						t.Error("read-priority never promoted a read past a pending write")
					}
				}
				if m.minBacklog > 1000 && o.MaxContended < 2 {
					t.Errorf("at most %d readers and writers pended on one sector, want several of each", o.MaxContended)
				}
				if got := s.Retained(); got != 0 {
					t.Errorf("finished scheduler still retains %d commands or index records", got)
				}
				if err := f.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

type countDone struct{ n int }

func (d *countDone) Complete(*host.Command) { d.n++ }

// A finished scheduler reaches none of the commands it retired: popped
// chip-queue and event-heap slots are nil up to the backing arrays'
// capacity, and records parked on the freelist are cleared, so they pin
// neither their submitter's completion closure nor an error (the
// shifting queues and the freelist used to keep all three alive).
func TestSchedulerRetainsNothing(t *testing.T) {
	const n = 2000
	t.Run("external-recycling", func(t *testing.T) {
		dev, f, fill := newRig(t, "subFTL")
		s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: &host.ReadPriority{}, TickEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		g, done := newHazardGen(fill, 9), &countDone{}
		sub := make(chan host.ExtSubmission, n)
		for i := 0; i < n; i++ {
			sub <- host.ExtSubmission{Req: g.Next(), Complete: done}
		}
		close(sub)
		if _, err := s.RunExternal(sub, nil); err != nil {
			t.Fatal(err)
		}
		if done.n != n {
			t.Fatalf("%d of %d completions delivered", done.n, n)
		}
		if got := s.Retained(); got != 0 {
			t.Errorf("finished scheduler still retains %d commands, closures or index records", got)
		}
	})
	t.Run("closed-loop", func(t *testing.T) {
		dev, f, fill := newRig(t, "subFTL")
		s, err := host.New(dev, f, host.Config{Queues: 4, TickEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunClosedLoop(newHazardGen(fill, 9), n, 32); err != nil {
			t.Fatal(err)
		}
		if got := s.Retained(); got != 0 {
			t.Errorf("finished scheduler still retains %d commands or index records", got)
		}
	})
}
