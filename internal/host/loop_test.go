package host

import (
	"errors"
	"regexp"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/workload"
)

var errInjected = errors.New("injected failure")

// markLSN is an address mixGen never produces; markGen's request k writes
// it and failAtMark fails exactly that request.
const markLSN = 1000

type markGen struct {
	mixGen
	k, i int
}

func (g *markGen) Next() workload.Request {
	g.i++
	if g.i-1 == g.k {
		return workload.Request{Op: workload.OpWrite, LSN: markLSN, Sectors: 1}
	}
	return g.mixGen.Next()
}

type failAtMark struct{ nopFTL }

func (f failAtMark) Submit(r workload.Request, done ftl.CompletionFunc) {
	if r.LSN == markLSN {
		done(errInjected)
		return
	}
	f.nopFTL.Submit(r, done)
}

// The generator loops end at the command whose FTL call failed, with the
// error that names it: without maintenance ticks, request k is command
// seq k. The run stops there, so fewer than all requests complete.
func TestLoopDriversEndAtFailedCommand(t *testing.T) {
	const n, k = 4096, 1500
	for _, tc := range []struct {
		name string
		run  func(*Scheduler, workload.Generator) (*Report, error)
	}{
		{"closed-qd32", func(s *Scheduler, g workload.Generator) (*Report, error) { return s.RunClosedLoop(g, n, 32) }},
		{"open", func(s *Scheduler, g workload.Generator) (*Report, error) { return s.RunOpenLoop(g, n, 1e6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(allocDevice(t), failAtMark{}, Config{Queues: 4, Arbiter: &ReadPriority{}})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tc.run(s, &markGen{k: k})
			if !errors.Is(err, errInjected) {
				t.Fatalf("run ended with %v, want the injected failure", err)
			}
			want := regexp.MustCompile(`^host: write command seq 1500 \(.*\): injected failure$`)
			if !want.MatchString(err.Error()) {
				t.Fatalf("error %q does not name command seq %d", err, k)
			}
			if rep.Completed >= n {
				t.Fatalf("run completed all %d requests after the failure", rep.Completed)
			}
		})
	}
}

// SampleLog records every queue-depth and chip-utilization value the
// coming run samples, recomputed from the scheduler's state at each
// sample, so a test can check the report's summaries by brute force.
type SampleLog struct{ Depths, Utils []float64 }

// AttachSampleLog installs a SampleLog on s.
func AttachSampleLog(s *Scheduler) *SampleLog {
	l := &SampleLog{}
	s.onObserve = func() {
		l.Depths = append(l.Depths, float64(s.pendingHost+s.inflight))
		if horizon := s.dev.DrainTime().Sub(s.drain0); horizon > 0 {
			busy := s.dev.TotalChipBusy() - s.busy0
			l.Utils = append(l.Utils, float64(busy)/(float64(horizon)*float64(s.chips)))
		}
	}
	return l
}
