package host_test

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// completeFunc adapts a func to host.Completion. The scheduler recycles
// the record once Complete returns, so a callback that keeps a command
// copies it.
type completeFunc func(*host.Command)

func (f completeFunc) Complete(c *host.Command) { f(c) }

// pump feeds n generated requests through an external scheduler run as a
// closed loop of the given window and returns every completed command in
// completion order. The loop runs on the scheduler goroutine alone: the
// first window submissions are queued before the run starts and each
// completion callback queues the next, so what the scheduler finds in the
// channel at every poll is fixed by the run itself (RunExternal's
// determinism contract). The buffer is the window: a completing command
// has left the channel, so the callback's send never blocks.
func pump(t *testing.T, s *host.Scheduler, gen workload.Generator, n, window int, gate *sim.Gate) ([]*host.Command, *host.Report) {
	t.Helper()
	sub := make(chan host.ExtSubmission, window)
	var done []*host.Command
	sent := 0
	var submit func()
	submit = func() {
		if sent == n {
			return
		}
		sent++
		sub <- host.ExtSubmission{Req: gen.Next(), Complete: completeFunc(func(c *host.Command) {
			cp := *c
			done = append(done, &cp)
			submit()
		})}
		if sent == n {
			close(sub)
		}
	}
	for i := 0; i < window; i++ {
		submit()
	}
	rep, err := s.RunExternal(sub, gate)
	if err != nil {
		t.Fatalf("RunExternal: %v", err)
	}
	return done, rep
}

// TestRunExternalCompletesAll drives a mixed workload through the
// channel path and checks the full accounting: every submission
// completes exactly once, error-free, and the report balances.
func TestRunExternalCompletesAll(t *testing.T) {
	const n = 4000
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	done, rep := pump(t, s, newGen(t, fill, 0.4, 7), n, 8, nil)
	if len(done) != n {
		t.Fatalf("completed %d of %d submissions", len(done), n)
	}
	if rep.Submitted != n || rep.Completed != n {
		t.Fatalf("report: submitted %d completed %d (want %d)", rep.Submitted, rep.Completed, n)
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("report: %d errors, %d rejected on a healthy device", rep.Errors, rep.Rejected)
	}
	for i, c := range done {
		if c.Err != nil {
			t.Fatalf("command %d completed with error %v", i, c.Err)
		}
		if c.Complete < c.Arrival {
			t.Fatalf("command %d completed before it arrived", i)
		}
	}
	if rep.Background == 0 {
		t.Fatal("maintenance ticks never ran")
	}
	if err := f.Check(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestRunExternalDeterministic: with every submission entering from the
// scheduler goroutine (see pump), two identical runs agree bit-for-bit —
// FTL counters, drain time and the out-of-order completion count, which is
// the first thing goroutine timing would move.
func TestRunExternalDeterministic(t *testing.T) {
	run := func() (ftl.Stats, sim.Time, int64) {
		dev, f, fill := newRig(t, "subFTL")
		s, err := host.New(dev, f, host.Config{TickEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		_, rep := pump(t, s, newGen(t, fill, 0.4, 11), 2500, 8, nil)
		return f.Stats(), dev.DrainTime(), rep.OutOfOrder
	}
	s1, d1, o1 := run()
	s2, d2, o2 := run()
	if s1 != s2 || d1 != d2 || o1 != o2 {
		t.Fatalf("two identical external runs diverged:\n%+v drain=%v ooo=%d\n%+v drain=%v ooo=%d",
			s1, d1, o1, s2, d2, o2)
	}
}

// failingFTL injects an FTL error on every sync write, exercising the
// external path's per-command error delivery.
type failingFTL struct {
	ftl.FTL
	fails int64
}

var errInjected = errors.New("injected program failure")

func (f *failingFTL) Write(lsn int64, sectors int, sync bool) error {
	if sync {
		f.fails++
		return errInjected
	}
	return f.FTL.Write(lsn, sectors, sync)
}

func (f *failingFTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	ftl.SubmitSync(f, r, done)
}

// TestRunExternalErrorDelivery: a failed command completes carrying its
// error instead of aborting the run, and the report counts it.
func TestRunExternalErrorDelivery(t *testing.T) {
	dev, inner, fill := newRig(t, "subFTL")
	f := &failingFTL{FTL: inner}
	s, err := host.New(dev, f, host.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	done, rep := pump(t, s, newGen(t, fill, 0.0, 3), n, 4, nil)
	if len(done) != n {
		t.Fatalf("completed %d of %d", len(done), n)
	}
	var failed int64
	for _, c := range done {
		if c.Err != nil {
			if !errors.Is(c.Err, errInjected) {
				t.Fatalf("unexpected error: %v", c.Err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no sync writes generated; test is vacuous")
	}
	if failed != f.fails || rep.Errors != failed {
		t.Fatalf("error accounting: %d command errors, %d injections, report says %d",
			failed, f.fails, rep.Errors)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d despite errors", rep.Completed, n)
	}
}

// TestRunExternalRejection: an unschedulable request is refused before
// queueing; its callback still fires, carrying the error.
func TestRunExternalRejection(t *testing.T) {
	dev, f, _ := newRig(t, "cgmFTL")
	s, err := host.New(dev, f, host.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sub := make(chan host.ExtSubmission)
	var rejected *host.Command
	go func() {
		sub <- host.ExtSubmission{
			Req:      workload.Request{Op: workload.OpAdvance, Gap: 1},
			Complete: completeFunc(func(c *host.Command) { cp := *c; rejected = &cp }),
		}
		sub <- host.ExtSubmission{Req: workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4}}
		close(sub)
	}()
	rep, err := s.RunExternal(sub, nil)
	if err != nil {
		t.Fatalf("RunExternal: %v", err)
	}
	if rejected == nil || rejected.Err == nil {
		t.Fatal("rejected submission did not deliver its error")
	}
	if rep.Rejected != 1 || rep.Submitted != 1 || rep.Completed != 1 {
		t.Fatalf("report: rejected=%d submitted=%d completed=%d", rep.Rejected, rep.Submitted, rep.Completed)
	}
}

// TestRunExternalFlashBytes: external mode attributes device program
// bytes to the commands that caused them; the per-command deltas must
// sum to the device counter's growth.
func TestRunExternalFlashBytes(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Counters().BytesWritten
	done, _ := pump(t, s, newGen(t, fill, 0.2, 5), 2000, 8, nil)
	var sum int64
	for _, c := range done {
		if c.FlashBytes < 0 {
			t.Fatalf("negative FlashBytes %d", c.FlashBytes)
		}
		sum += c.FlashBytes
	}
	growth := dev.Counters().BytesWritten - before
	// Background ticks also program (scrub relocations), so the host sum
	// is bounded by — and on this workload the bulk of — the growth.
	if sum > growth {
		t.Fatalf("host-attributed bytes %d exceed device growth %d", sum, growth)
	}
	if sum == 0 {
		t.Fatal("no flash bytes attributed on a write-heavy workload")
	}
}

// TestRunExternalPaced: a pacing gate neither loses nor reorders work;
// with an aggressive speedup the run finishes promptly but still passes
// through the timer path.
func TestRunExternalPaced(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	gate := sim.NewGate(1e6, dev.Clock().Now()) // 1 virtual ms per wall ns: brisk but paced
	const n = 800
	done, rep := pump(t, s, newGen(t, fill, 0.4, 9), n, 8, gate)
	if len(done) != n || rep.Completed != n {
		t.Fatalf("paced run completed %d/%d (report %d)", len(done), n, rep.Completed)
	}
}

// TestRunExternalConcurrentProducers hammers the submission channel from
// several goroutines at once — the -race CI job proves the only shared
// state is the channel itself.
func TestRunExternalConcurrentProducers(t *testing.T) {
	dev, f, fill := newRig(t, "subFTL")
	s, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	const producers, perProducer = 4, 500
	sub := make(chan host.ExtSubmission)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := newGen(t, fill, 0.5, uint64(100+p))
			window := make(chan struct{}, 4)
			for i := 0; i < perProducer; i++ {
				window <- struct{}{}
				sub <- host.ExtSubmission{Req: gen.Next(), Complete: completeFunc(func(c *host.Command) {
					completed.Add(1)
					<-window
				})}
			}
			for i := 0; i < cap(window); i++ { // drain: all in-flight done
				window <- struct{}{}
			}
		}(p)
	}
	go func() { wg.Wait(); close(sub) }()
	rep, err := s.RunExternal(sub, nil)
	if err != nil {
		t.Fatalf("RunExternal: %v", err)
	}
	if got := completed.Load(); got != producers*perProducer {
		t.Fatalf("completed %d of %d", got, producers*perProducer)
	}
	if rep.Completed != producers*perProducer {
		t.Fatalf("report completed %d", rep.Completed)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("post-run invariants: %v", err)
	}
}

// TestRunExternalAdmissionBatch: one scheduler wake admits what the
// submission channel can hold. Submissions already sitting in a buffered
// channel are arbitrated as one batch — read-priority dispatches the read
// ahead of the two writes submitted before it — while an unbuffered channel
// hands over one submission per wake, so each is dispatched before the
// scheduler has seen the next and nothing can be promoted.
func TestRunExternalAdmissionBatch(t *testing.T) {
	run := func(buffered bool) ([]workload.Op, int64) {
		dev, f, fill := newRig(t, "subFTL")
		arb, err := host.NewArbiter("read-priority")
		if err != nil {
			t.Fatal(err)
		}
		s, err := host.New(dev, f, host.Config{Arbiter: arb})
		if err != nil {
			t.Fatal(err)
		}
		// The two writes route to chips 0 and 1 (round-robin); read from a
		// page that lives on neither, so the read heads its own queue.
		readLSN := int64(-1)
		for lsn := int64(8); lsn < fill; lsn += 4 {
			if ch := f.(ftl.ChipProbe).ChipOf(lsn); ch > 1 {
				readLSN = lsn
				break
			}
		}
		if readLSN < 0 {
			t.Fatal("no preconditioned page outside chips 0 and 1")
		}
		reqs := []workload.Request{
			{Op: workload.OpWrite, LSN: 0, Sectors: 4},
			{Op: workload.OpWrite, LSN: 4, Sectors: 4},
			{Op: workload.OpRead, LSN: readLSN, Sectors: 4},
		}
		var order []workload.Op
		s.SetDispatchHook(func(c *host.Command) { order = append(order, c.Req.Op) })
		var sub chan host.ExtSubmission
		feed := func() {
			for _, r := range reqs {
				sub <- host.ExtSubmission{Req: r}
			}
			close(sub)
		}
		if buffered {
			sub = make(chan host.ExtSubmission, len(reqs))
			feed()
		} else {
			sub = make(chan host.ExtSubmission)
			go feed()
		}
		rep, err := s.RunExternal(sub, nil)
		if err != nil {
			t.Fatalf("RunExternal: %v", err)
		}
		if rep.Completed != int64(len(reqs)) {
			t.Fatalf("completed %d of %d", rep.Completed, len(reqs))
		}
		return order, rep.ReadsPromoted
	}
	w, r := workload.OpWrite, workload.OpRead
	if order, promoted := run(true); !reflect.DeepEqual(order, []workload.Op{r, w, w}) || promoted != 1 {
		t.Errorf("buffered channel: dispatch order %v with %d reads promoted, want the read first and 1 promotion", order, promoted)
	}
	if order, promoted := run(false); !reflect.DeepEqual(order, []workload.Op{w, w, r}) || promoted != 0 {
		t.Errorf("unbuffered channel: dispatch order %v with %d reads promoted, want submission order and none", order, promoted)
	}
}
