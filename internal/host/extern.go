package host

import (
	"time"

	"espftl/internal/sim"
	"espftl/internal/workload"
)

// This file is the scheduler's external-submission driver: the same event
// loop as the closed and open loops, but requests arrive on a channel from
// concurrent producers (the network service's connection readers) and
// every completion is delivered back through the submission's Completion,
// the one delivery path. The scheduler remains single-threaded — the
// channel is the only synchronization point, and its capacity is the
// admission batch — so the FTL and device keep their deterministic,
// single-caller world even with hundreds of concurrent clients upstream.

// Completion receives a completed command: Complete is invoked exactly
// once, on the scheduler goroutine, when the command completes (or is
// rejected before queueing). The command's Err field carries the FTL
// error, if any; Arrival/Complete give its virtual-time lifecycle.
// Complete must not block: it runs inside the event loop, and a slow
// receiver stalls every tenant. The record returns to the scheduler's
// freelist as soon as Complete returns, so the receiver must copy anything
// it needs and must not retain the *Command past the call.
type Completion interface {
	Complete(c *Command)
}

// ExtSubmission is one externally produced request plus where its
// completion is delivered; a nil Complete submits fire-and-forget.
type ExtSubmission struct {
	Req      workload.Request
	Complete Completion
}

// RunExternal services submissions from sub until the channel is closed
// and every accepted command has completed, returning the run's report.
// The gate paces the virtual clock against the wall clock: completions
// are delivered no earlier than their virtual completion instant, and
// arrivals stamp the gate's wall-mapped virtual time, so simulated
// device latencies shape the latencies external clients observe. A nil
// or non-pacing gate runs as fast as possible (tests, batch replays).
//
// Determinism: the loop polls sub without blocking whenever it has events
// of its own, so what a run does is a function of what each poll finds.
// That is fixed — and with a non-pacing gate the whole run, Report
// included, repeats bit for bit — when every submission is already in the
// (buffered) channel at the poll that admits it: sent before RunExternal
// starts, or from a Complete callback, which runs on this goroutine.
// With concurrent producers, whether a send lands before a poll is
// goroutine timing: each producer's submissions are still admitted in its
// send order and every accepted command completes exactly once, but which
// commands the scheduler sees queued together, and so dispatch order,
// Report.OutOfOrder and latencies, may differ between runs.
//
// A command's FTL error does not end the run: the command completes
// carrying it (Command.Err), because one tenant's failure — or even a dead
// device, which fails every subsequent command — must drain through the
// protocol, not collapse it. A background tick's error is dropped.
func (s *Scheduler) RunExternal(sub <-chan ExtSubmission, gate *sim.Gate) (*Report, error) {
	if err := s.start(0); err != nil {
		return nil, err
	}
	var timer *time.Timer
	open := true
	// wait blocks until the next event is due or submissions arrive, and
	// reports whether it admitted any.
	wait := func() bool {
		var due <-chan time.Time // nil while no event is pending
		if len(s.events) > 0 {
			next := s.events[0].at
			if !open {
				if gate.Realtime() {
					// Draining: no new arrivals, but in-flight completions
					// keep their paced delivery times.
					gate.Wait(next)
				}
				return false
			}
			d := gateWait(gate, next)
			if d <= 0 {
				// The completion is already due; still drain any queued
				// submissions first so arrivals are not starved by a
				// backlog of ready events.
				select {
				case r, ok := <-sub:
					open = s.admit(r, ok, sub, gate)
					return true
				default:
					return false
				}
			}
			// The next completion lies in the wall-clock future: wait for
			// it, but wake immediately for new submissions.
			if timer == nil {
				timer = time.NewTimer(d)
			} else {
				timer.Reset(d)
			}
			due = timer.C
		} else if !open {
			return false
		}
		select {
		case r, ok := <-sub:
			if due != nil && !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			open = s.admit(r, ok, sub, gate)
			return true
		case <-due:
			return false
		}
	}
	return s.finish(s.loop(wait, deliver, nil))
}

// deliver hands a completed host command to its submitter's Completion.
func deliver(c *Command) error {
	if c.comp != nil {
		c.comp.Complete(c)
	}
	return nil
}

// admit takes what a receive on sub returned — a submission, or the
// channel's close — and then greedily accepts the submissions already
// sitting in the channel behind it, so one scheduler wake admits a whole
// burst and the following dispatch round arbitrates over the full batch
// instead of one command at a time. A wake admits at most cap(sub)
// submissions — what producers can have queued without blocking — so an
// unbuffered channel admits only the one just received. How many sends have
// landed by a given poll is goroutine timing unless they come from this
// goroutine (see RunExternal's determinism contract). It reports whether
// the channel is still open.
func (s *Scheduler) admit(r ExtSubmission, ok bool, sub <-chan ExtSubmission, gate *sim.Gate) bool {
	for n := 1; ok; n++ {
		s.acceptExt(r, gate)
		if n >= cap(sub) {
			return true
		}
		select {
		case r, ok = <-sub:
		default:
			return true
		}
	}
	return false
}

// acceptExt stamps an external arrival onto the virtual axis and queues
// it; a request the scheduler rejects outright (validation) completes
// immediately with the error attached.
func (s *Scheduler) acceptExt(r ExtSubmission, gate *sim.Gate) {
	if gate.Realtime() {
		v := gate.VirtualNow()
		s.clock.AdvanceTo(v)
		if v > s.now {
			s.now = v
		}
	}
	c, err := s.submit(r.Req)
	if err != nil {
		s.rep.Rejected++
		if r.Complete == nil {
			return
		}
		rc := s.newCmd()
		rc.Req, rc.Err, rc.Chip = r.Req, err, s.chips
		rc.Arrival, rc.Dispatch, rc.Complete = s.now, s.now, s.now
		rc.DispatchIdx = -1
		r.Complete.Complete(rc)
		s.freeCmd(rc)
		return
	}
	c.comp = r.Complete
}

// gateWait returns how long the wall clock must run before the virtual
// instant v is due; 0 when the gate does not pace.
func gateWait(gate *sim.Gate, v sim.Time) time.Duration {
	if !gate.Realtime() {
		return 0
	}
	return gate.WallUntil(v)
}
