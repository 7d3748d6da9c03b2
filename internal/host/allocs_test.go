package host

import (
	"runtime"
	"testing"
	"unsafe"

	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// nopFTL accepts every request and touches no device resource, so a
// scheduler over it measures the scheduler alone.
type nopFTL struct{}

func (nopFTL) Name() string                      { return "nop" }
func (nopFTL) Write(int64, int, bool) error      { return nil }
func (nopFTL) Read(int64, int) error             { return nil }
func (nopFTL) Trim(int64, int) error             { return nil }
func (nopFTL) Flush() error                      { return nil }
func (nopFTL) Tick() error                       { return nil }
func (nopFTL) Stats() ftl.Stats                  { return ftl.Stats{} }
func (nopFTL) Check() error                      { return nil }
func (nopFTL) Recover() (ftl.MountReport, error) { return ftl.MountReport{}, nil }
func (nopFTL) ChipOf(int64) int                  { return -1 }
func (nopFTL) ReadOnly() bool                    { return false }
func (nopFTL) VersionOf(int64) uint32            { return 0 }
func (f nopFTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// mixGen is an allocation-free stream of overlapping reads, writes and
// trims over 96 sectors, with a flush every 101 requests.
type mixGen struct{ i int }

func (g *mixGen) Name() string { return "mix" }

func (g *mixGen) Next() workload.Request {
	g.i++
	i := g.i
	r := workload.Request{Op: workload.OpWrite, LSN: int64(i*7) % 96, Sectors: 1 + i%5}
	switch {
	case i%3 == 0:
		r.Op = workload.OpRead
	case i%17 == 0:
		r.Op = workload.OpTrim
	case i%101 == 0:
		r = workload.Request{Op: workload.OpFlush}
	}
	return r
}

// allocDevice is a small device for schedulers over nopFTL.
func allocDevice(t *testing.T) *nand.Device {
	t.Helper()
	cfg := nand.DefaultConfig()
	cfg.Geometry = nand.Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 4, PagesPerBlock: 4, SubpagesPerPage: 4, SubpageBytes: 4096}
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// A command's whole life in the scheduler — submit, the dispatch round
// that indexes and unindexes it, complete, and the record's return to the
// freelist — allocates nothing once the pools are warm, with a standing
// backlog so the hazard index is populated throughout.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s, err := New(allocDevice(t), nopFTL{}, Config{Queues: 4, Arbiter: &ReadPriority{}, TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.start(0); err != nil {
		t.Fatal(err)
	}
	gen := &mixGen{}
	cycle := func() {
		if _, err := s.submit(gen.Next()); err != nil {
			t.Fatal(err)
		}
		s.dispatchRound()
		c := s.events.pop().cmd
		s.complete(c)
		s.freeCmd(c)
	}
	for s.pendingHost < 512 {
		if _, err := s.submit(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	for range 4096 {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Errorf("steady-state submit/dispatch/complete cycle: %v allocs, want 0", avg)
	}
	if s.pendingHost == 0 || len(s.hz.sectors) == 0 {
		t.Errorf("backlog drained (%d pending, %d indexed sectors): the cycle measured an empty index", s.pendingHost, len(s.hz.sectors))
	}
}

// A run recycles every Command record once its completion has been
// counted, so a closed loop at QD32 without a dispatch hook allocates its
// few slabs up front: under one allocation per 128 requests, set-up
// included. A dispatch hook keeps records from being recycled — it may
// retain what it observed, and this one reads the previous command's
// times at the next dispatch, as a latency tap does — so hooked runs take
// a fresh slab record per command, one allocation per cmdsPerSlab, and
// stay under one per 16 requests.
func TestLoopDriverAllocs(t *testing.T) {
	const n = 16 << 10
	for _, tc := range []struct {
		name   string
		hooked bool
		limit  float64
		run    func(*Scheduler, workload.Generator) (*Report, error)
	}{
		{"closed-qd32", false, 1.0 / 128, func(s *Scheduler, g workload.Generator) (*Report, error) { return s.RunClosedLoop(g, n, 32) }},
		{"closed-qd32-hooked", true, 1.0 / 16, func(s *Scheduler, g workload.Generator) (*Report, error) { return s.RunClosedLoop(g, n, 32) }},
		{"open", true, 1.0 / 16, func(s *Scheduler, g workload.Generator) (*Report, error) { return s.RunOpenLoop(g, n, 1e6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The hook sees a command before its completion time is
			// stamped, so it checks the previous one at the next dispatch:
			// still the same command, completed no earlier than it arrived.
			// At the end every record it saw must still be the command it
			// saw. Its logs are allocated before the count starts.
			seen, idx := make([]*Command, 0, 2*n), make([]int64, 0, 2*n)
			var prevArrival sim.Time
			mangled := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := New(allocDevice(t), nopFTL{}, Config{Queues: 4, Arbiter: &ReadPriority{}, TickEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			if tc.hooked {
				s.SetDispatchHook(func(c *Command) {
					if k := len(seen) - 1; k >= 0 {
						if p := seen[k]; p.DispatchIdx != idx[k] || p.Arrival != prevArrival || p.Complete < p.Arrival {
							mangled++
						}
					}
					seen, idx, prevArrival = append(seen, c), append(idx, c.DispatchIdx), c.Arrival
				})
			}
			rep, err := tc.run(s, &mixGen{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != n {
				t.Fatalf("completed %d of %d", rep.Completed, n)
			}
			for k, c := range seen {
				if c.DispatchIdx != idx[k] {
					mangled++
				}
			}
			if tc.hooked && (len(seen) < n || mangled != 0) {
				t.Fatalf("hook saw %d dispatches and %d reused records", len(seen), mangled)
			}
			perReq := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%.4f allocations per request", perReq)
			if perReq > tc.limit {
				t.Errorf("%.4f allocations per request, want <= %.4f", perReq, tc.limit)
			}
		})
	}
}

// A Command slab fills the allocator's 8 KiB size class: it fits, and one
// more record would not, so no slab is rounded up with padding behind its
// last record.
func TestCommandSlabFitsSizeClass(t *testing.T) {
	size := unsafe.Sizeof(Command{})
	if cmdsPerSlab*size > 8192 || (cmdsPerSlab+1)*size <= 8192 {
		t.Fatalf("%d records of %d B take %d B of 8192", cmdsPerSlab, size, cmdsPerSlab*size)
	}
	t.Logf("Command is %d B: %d records, %d B per slab", size, cmdsPerSlab, cmdsPerSlab*size)
}
