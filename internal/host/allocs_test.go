package host

import (
	"testing"

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

// A command's whole life in the scheduler — submitCmd, the dispatch round
// that indexes and unindexes it, complete, and the record's return to the
// freelist — allocates nothing once the pools are warm, with a standing
// backlog so the hazard index is populated throughout.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	cfg := nand.DefaultConfig()
	cfg.Geometry = nand.Geometry{Channels: 2, ChipsPerChannel: 2, BlocksPerChip: 4, PagesPerBlock: 4, SubpagesPerPage: 4, SubpageBytes: 4096}
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dev, nopFTL{}, Config{Queues: 4, Arbiter: &ReadPriority{}, TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.start(0); err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() workload.Request {
		i++
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
	cycle := func() {
		if _, err := s.submitCmd(next()); err != nil {
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
		if _, err := s.submitCmd(next()); err != nil {
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
