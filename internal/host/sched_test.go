package host_test

import (
	"strings"
	"testing"

	"espftl/internal/core"
	"espftl/internal/ftl"
	"espftl/internal/ftl/cgm"
	"espftl/internal/ftl/fgm"
	"espftl/internal/host"
	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

var kinds = []string{"cgmFTL", "fgmFTL", "subFTL"}

// newRig builds a preconditioned device+FTL pair of the given kind on a
// fresh clock, returning the fill size the workload generators run over.
func newRig(t *testing.T, kind string) (*nand.Device, ftl.FTL, int64) {
	t.Helper()
	cfg := nand.DefaultConfig()
	cfg.Geometry = nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		BlocksPerChip:   16,
		PagesPerBlock:   16,
		SubpagesPerPage: 4,
		SubpageBytes:    4096,
	}
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	logical := int64(float64(g.TotalSubpages())*0.70) / ps * ps
	var f ftl.FTL
	switch kind {
	case "cgmFTL":
		f, err = cgm.New(dev, cgm.Config{LogicalSectors: logical, GCReserveBlocks: 6})
	case "fgmFTL":
		f, err = fgm.New(dev, fgm.Config{LogicalSectors: logical, GCReserveBlocks: 6})
	case "subFTL":
		sc := core.DefaultConfig(logical)
		sc.GCReserveBlocks = 6
		f, err = core.New(dev, sc)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	fill := int64(float64(logical)*0.85) / ps * ps
	step := ps * 8
	for lsn := int64(0); lsn < fill; lsn += step {
		n := step
		if lsn+n > fill {
			n = fill - lsn
		}
		if err := f.Write(lsn, int(n), false); err != nil {
			t.Fatalf("precondition at %d: %v", lsn, err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	dev.Clock().AdvanceTo(dev.DrainTime())
	return dev, f, fill
}

func testProfile(read float64) workload.Profile {
	return workload.Profile{
		Name:       "host-test",
		SmallRatio: 0.6,
		SyncRatio:  0.5,
		ReadRatio:  read,
		SmallSizes: []int{1, 2, 3},
		LargeSizes: []int{4, 8},
		Zipf:       0.8,
	}
}

func newGen(t *testing.T, fill int64, read float64, seed uint64) *workload.Synthetic {
	t.Helper()
	gen, err := workload.NewSynthetic(testProfile(read), fill, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// replaySerial is the classic serial path: issue, retire, tick every
// tickEvery requests — the reference the QD=1 scheduler must match.
func replaySerial(t *testing.T, f ftl.FTL, gen workload.Generator, n, tickEvery int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := gen.Next()
		var err error
		switch r.Op {
		case workload.OpWrite:
			err = f.Write(r.LSN, r.Sectors, r.Sync)
		case workload.OpRead:
			err = f.Read(r.LSN, r.Sectors)
		case workload.OpTrim:
			err = f.Trim(r.LSN, r.Sectors)
		}
		if err != nil {
			t.Fatalf("request %d (%v): %v", i, r, err)
		}
		if tickEvery > 0 && i%tickEvery == 0 {
			if err := f.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The headline degeneration property: at queue depth 1 with FIFO
// arbitration the scheduler produces bit-identical FTL stats and device
// drain time to the serial replay, for all three FTLs.
func TestClosedLoopQD1MatchesSerial(t *testing.T) {
	const n, tickEvery = 3000, 64
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			devA, fa, fill := newRig(t, kind)
			replaySerial(t, fa, newGen(t, fill, 0.3, 42), n, tickEvery)

			devB, fb, _ := newRig(t, kind)
			s, err := host.New(devB, fb, host.Config{TickEvery: tickEvery})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.RunClosedLoop(newGen(t, fill, 0.3, 42), n, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != n {
				t.Fatalf("completed %d of %d", rep.Completed, n)
			}
			if got, want := fb.Stats(), fa.Stats(); got != want {
				t.Errorf("stats diverge at QD1:\n got %+v\nwant %+v", got, want)
			}
			if got, want := devB.DrainTime(), devA.DrainTime(); got != want {
				t.Errorf("drain time %v, want %v", got, want)
			}
			if rep.OutOfOrder != 0 {
				t.Errorf("OutOfOrder = %d at QD1", rep.OutOfOrder)
			}
			if err := fb.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// pairGen emits write/read pairs to the same sector interleaved across
// many sectors: at high queue depth both halves of several pairs are in
// flight together, so only the ordering barrier keeps each read behind
// its write.
type pairGen struct {
	fill int64
	i    int
}

func (g *pairGen) Name() string { return "pairs" }
func (g *pairGen) Next() workload.Request {
	pair := g.i / 2
	lsn := (int64(pair) * 37) % (g.fill - 4)
	op := workload.OpWrite
	if g.i%2 == 1 {
		op = workload.OpRead
	}
	g.i++
	return workload.Request{Op: op, LSN: lsn, Sectors: 3, Sync: true}
}

// Satellite: a read submitted after a write to the same sectors must be
// dispatched after it at any queue depth and under any arbiter, for all
// three FTLs. The dispatch hook records the order the FTL actually saw;
// the FTL's own stamp verification cannot catch an inversion because
// versions are assigned at dispatch time.
func TestOrderingBarrier(t *testing.T) {
	const n, depth = 2000, 16
	for _, kind := range kinds {
		for _, arbName := range []string{"fifo", "read-priority"} {
			t.Run(kind+"/"+arbName, func(t *testing.T) {
				dev, f, fill := newRig(t, kind)
				arb, err := host.NewArbiter(arbName)
				if err != nil {
					t.Fatal(err)
				}
				s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: arb, TickEvery: 64})
				if err != nil {
					t.Fatal(err)
				}
				var order []host.Command
				s.SetDispatchHook(func(c *host.Command) { order = append(order, *c) })
				rep, err := s.RunClosedLoop(&pairGen{fill: fill}, n, depth)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Completed != n {
					t.Fatalf("completed %d of %d", rep.Completed, n)
				}
				pos := make(map[int64]int, len(order))
				for i, c := range order {
					pos[c.Seq] = i
				}
				for _, c := range order {
					if c.Class != host.ClassRead {
						continue
					}
					for _, w := range order {
						if w.Seq >= c.Seq || w.Class != host.ClassWrite {
							continue
						}
						overlap := w.Req.LSN < c.Req.LSN+int64(c.Req.Sectors) &&
							c.Req.LSN < w.Req.LSN+int64(w.Req.Sectors)
						if overlap && pos[w.Seq] > pos[c.Seq] {
							t.Fatalf("read seq %d dispatched before overlapping write seq %d", c.Seq, w.Seq)
						}
					}
				}
				if err := f.Check(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// At depth > 1 with mixed traffic the scheduler genuinely completes out
// of order, and two identical runs are bit-identical.
func TestOutOfOrderAndDeterminism(t *testing.T) {
	run := func() (*host.Report, ftl.Stats, sim.Time) {
		dev, f, fill := newRig(t, "subFTL")
		arb, _ := host.NewArbiter("read-priority")
		s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: arb, TickEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunClosedLoop(newGen(t, fill, 0.5, 7), 4000, 16)
		if err != nil {
			t.Fatal(err)
		}
		return rep, f.Stats(), dev.DrainTime()
	}
	repA, statsA, drainA := run()
	repB, statsB, drainB := run()
	if repA.OutOfOrder == 0 {
		t.Error("no out-of-order completions at QD16 with read-priority")
	}
	if statsA != statsB {
		t.Errorf("stats not deterministic:\n%+v\n%+v", statsA, statsB)
	}
	if drainA != drainB {
		t.Errorf("drain time not deterministic: %v vs %v", drainA, drainB)
	}
	if repA.String() != repB.String() {
		t.Errorf("reports not deterministic:\n%s\n%s", repA, repB)
	}
	if repA.HostLat.Summary() != repB.HostLat.Summary() {
		t.Errorf("latency summaries not deterministic")
	}
}

// Background maintenance yields to pending reads but cannot starve.
func TestBackgroundYieldsButRuns(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 16, BackgroundDeferLimit: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunClosedLoop(newGen(t, fill, 0.6, 3), 2000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Background == 0 {
		t.Error("no background commands dispatched")
	}
	if rep.BackgroundDeferred == 0 {
		t.Error("background never yielded to reads at QD16")
	}
}

func TestOpenLoop(t *testing.T) {
	dev, f, fill := newRig(t, "fgmFTL")
	for _, rate := range []float64{0, -5, 1e13} {
		s, _ := host.New(dev, f, host.Config{})
		if _, err := s.RunOpenLoop(newGen(t, fill, 0.3, 1), 10, rate); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Clock().Now()
	const n = 1000
	rep, err := s.RunOpenLoop(newGen(t, fill, 0.3, 9), n, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	// 1000 arrivals at 20k req/s span ~50 ms of virtual time.
	if got := dev.Clock().Now().Sub(before); got < 49*sim.Duration(1e6) {
		t.Errorf("clock advanced %v, want ~50ms of arrivals", got)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// A scheduler is single-use: a second run must be rejected, not corrupt
// the first run's report.
func TestSchedulerSingleUse(t *testing.T) {
	dev, f, fill := newRig(t, "cgmFTL")
	s, err := host.New(dev, f, host.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunClosedLoop(newGen(t, fill, 0, 1), 50, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunClosedLoop(newGen(t, fill, 0, 1), 50, 2); err == nil {
		t.Fatal("second run accepted")
	}
}

// New refuses negative sizes with a "host:" error. A negative background
// deferral limit would never let background work yield to host reads.
func TestNewRejectsNegativeConfig(t *testing.T) {
	dev, f, _ := newRig(t, "cgmFTL")
	for name, cfg := range map[string]host.Config{
		"Queues":               {Queues: -1},
		"TickEvery":            {TickEvery: -1},
		"BackgroundDeferLimit": {BackgroundDeferLimit: -1},
	} {
		_, err := host.New(dev, f, cfg)
		if err == nil {
			t.Errorf("negative %s accepted", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "host: ") {
			t.Errorf("negative %s: error %q, want a host: error", name, err)
		}
	}
}

// The report's queue-depth and chip-utilization summaries are exact: over
// one closed-loop run they equal the mean and max of every value the loop
// sampled, many more than the 512 a decimated series would have retained.
func TestSummariesMatchEverySample(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{Queues: 4, Arbiter: &host.ReadPriority{}, TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	log := host.AttachSampleLog(s)
	rep, err := s.RunClosedLoop(newGen(t, fill, 0.4, 3), 3000, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		got     metrics.Running
		samples []float64
	}{
		{"queue depth", rep.QueueDepth, log.Depths},
		{"chip utilization", rep.ChipUtil, log.Utils},
	} {
		if len(tc.samples) <= 2*512 {
			t.Fatalf("%s: only %d samples", tc.name, len(tc.samples))
		}
		sum, peak := 0.0, tc.samples[0]
		for _, v := range tc.samples {
			sum += v
			peak = max(peak, v)
		}
		mean := sum / float64(len(tc.samples))
		if tc.got.Count() != int64(len(tc.samples)) || tc.got.MeanValue() != mean || tc.got.MaxValue() != peak {
			t.Errorf("%s: summary n=%d mean=%v max=%v, samples n=%d mean=%v max=%v",
				tc.name, tc.got.Count(), tc.got.MeanValue(), tc.got.MaxValue(), len(tc.samples), mean, peak)
		}
	}
}
