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

// A command's whole life in the scheduler — submitCmd, the dispatch round
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
		if _, err := s.submitCmd(gen.Next()); err != nil {
			t.Fatal(err)
		}
		if err := s.dispatchRound(); err != nil {
			t.Fatal(err)
		}
		c := s.events.pop().cmd
		host := c.Class != ClassBackground // complete recycles a background tick itself
		s.complete(c)
		if host {
			s.freeCmd(c)
		}
	}
	for s.pendingHost < 512 {
		if _, err := s.submitCmd(gen.Next()); err != nil {
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

// The loop drivers take their Command records from the scheduler's slab,
// one allocation per cmdsPerSlab records, even with a dispatch hook
// retaining the last command dispatched, so a whole closed- or open-loop
// run stays under one allocation per 16 requests, its one-off set-up
// included.
func TestLoopDriverAllocs(t *testing.T) {
	const n = 16 << 10
	for _, tc := range []struct {
		name string
		run  func(*Scheduler, workload.Generator) (*Report, error)
	}{
		{"closed-qd32", func(s *Scheduler, g workload.Generator) (*Report, error) { return s.RunClosedLoop(g, n, 32) }},
		{"open", func(s *Scheduler, g workload.Generator) (*Report, error) { return s.RunOpenLoop(g, n, 1e6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(allocDevice(t), nopFTL{}, Config{Queues: 4, Arbiter: &ReadPriority{}, TickEvery: 64})
			if err != nil {
				t.Fatal(err)
			}
			var last *Command
			s.SetDispatchHook(func(c *Command) { last = c })
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := tc.run(s, &mixGen{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != n || last == nil {
				t.Fatalf("completed %d of %d", rep.Completed, n)
			}
			perReq := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%.4f allocations per request", perReq)
			if perReq > 1.0/16 {
				t.Errorf("%.4f allocations per request, want <= 1/16", perReq)
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
