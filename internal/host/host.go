// Package host implements the NVMe-style multi-queue host interface and
// event-driven scheduler that sits between the workload drivers and an
// FTL. It is the concurrency layer of the simulator: where the classic
// path issues one request, retires it, and only then looks at the next,
// the scheduler keeps a configurable number of requests outstanding,
// arbitrates which one the FTL sees next, and completes them out of
// order at the times the device's resource timelines actually drain.
//
// # Model
//
// Host requests are submitted into N submission-queue lanes and routed
// into per-chip command queues (reads by their current mapping, obtained
// through the FTL's ChipOf probe; writes round-robin across chips, a
// proxy for the FTLs' striped wear-leveled allocation). A central event
// loop — a priority queue keyed on sim.Time with a submission-sequence
// tie-break — pops completion (and, open loop, arrival) events; after
// every event a pluggable arbiter picks the next dispatchable command
// from the heads of the ready chip queues (non-empty, chip idle, head not
// known to be blocked; a bitmask tracks them). Dispatch issues the
// command to the FTL via its non-blocking Submit path (every ftl.FTL
// offers both it and ChipOf) inside a device transaction, whose journal
// of touched resources gives the command's completion time: a request
// that fans out across several chips and channel buses completes when its
// slowest fragment drains, independent of every other in-flight request.
// No per-dispatch cost depends on the chip count.
//
// Maintenance traffic (FTL.Tick: retention scrubbing) is admitted as a
// background-class command that yields to pending host reads, up to a
// bounded deferral.
//
// # Ordering
//
// The scheduler may reorder freely except across data hazards: a command
// is never dispatched before an earlier-submitted command whose sector
// range overlaps it when either is a write or trim. This is the ordering
// barrier that makes a read submitted after a write to the same LPN
// observe that write at any queue depth and under any arbiter. A flush
// is a barrier against every earlier and later command.
//
// The barrier is answered from an index of the undispatched commands, not
// by scanning the queues (hazard.go): each sector a queued command covers
// has a record with a submission-ordered list of its pending readers and
// one of its pending writers and trims, and a command is linked into them
// from submission until it leaves its chip queue for dispatch. A read is
// blocked iff some covered sector's earliest pending writer was submitted
// before it, a write or trim iff the earliest pending reader or writer
// was. Submission, dispatch and the test cost O(sectors of the command),
// completion and the queue pop O(1). A head the barrier refuses parks its
// queue on the command that blocks it, out of the ready mask, until that
// command dispatches, so a blocked head is tested again only when its
// answer may have changed: an open-loop run with tens of thousands of
// queued commands schedules as cheaply as queue depth 1.
//
// # Determinism
//
// Everything is deterministic: the event heap breaks time ties on
// submission sequence, arbitration scans fixed-order slices, and no map
// iteration (the hazard index's map is only ever looked up) or wall-clock
// input exists anywhere on the path. The same
// seed and configuration produce the identical event order, stats, and
// latency histograms. At queue depth 1 with the FIFO arbiter the
// scheduler degenerates to exactly the classic serial replay: the same
// FTL call sequence at the same virtual clock, bit-for-bit.
package host

import (
	"fmt"

	"espftl/internal/metrics"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// Class partitions commands for arbitration and latency accounting.
type Class uint8

// Command classes. Reads and writes are host traffic; Background is
// FTL maintenance (retention scrubbing via Tick) admitted between host
// commands.
const (
	ClassRead Class = iota
	ClassWrite
	ClassBackground
)

// String names the class in reports.
func (c Class) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassBackground:
		return "background"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Command is one scheduled unit: a host request or a background
// maintenance tick, tracked from submission to completion.
type Command struct {
	// Seq is the global submission order, the identity used by the
	// ordering barrier and all deterministic tie-breaks.
	Seq int64
	// Queue is the submission-queue lane the command arrived on.
	Queue int
	// Class drives arbitration and latency accounting.
	Class Class
	// waiters chains the command queues parked on this command: their
	// heads wait for it to dispatch (see Scheduler.park). It holds the
	// first queue's index plus one, 0 for none, and sits in Class's
	// padding.
	waiters int32
	// Req is the host request (zero for background commands).
	Req workload.Request
	// Chip is the command-queue index the command was routed to; the
	// index one past the last chip is the unrouted queue (background
	// work, buffer hits, unmapped reads).
	Chip int
	// Arrival, Dispatch and Complete are the command's lifecycle times
	// on the scheduler's virtual axis.
	Arrival, Dispatch, Complete sim.Time
	// DispatchIdx is the order the FTL saw the command in (-1 before
	// dispatch).
	DispatchIdx int64
	// Fanout is how many device resources (chips and channel buses) the
	// command's FTL call occupied — the transaction-split width.
	Fanout int
	// Err is the FTL error the command's dispatch produced. Every driver
	// handles it when the command completes: RunExternal delivers it with
	// the command to the submitter, and the generator loops end the run
	// with it.
	Err error
	// FlashBytes is how many device bytes were programmed while servicing
	// this command (host data plus any GC/relocation work it triggered),
	// which the service attributes to tenant namespaces.
	FlashBytes int64

	// deferred counts events a background command yielded to host reads.
	deferred int
	// comp delivers the completed command to its external submitter; the
	// record returns to the scheduler freelist as soon as Complete returns.
	comp Completion

	// out links the command into the scheduler's list of incomplete host
	// commands; und, wr, fl and haz link it into the hazard index for as
	// long as it is undispatched (see hazards).
	out, und, wr, fl node
	haz              *secNode
}

// latency is the command's completion minus arrival; by construction it
// is never negative (completion events are clamped to the arrival).
func (c *Command) latency() sim.Duration { return c.Complete.Sub(c.Arrival) }

// failure is the error a generator loop ends its run with when c completes
// carrying an FTL error, nil when it does not.
func (c *Command) failure() error {
	if c.Err == nil {
		return nil
	}
	return fmt.Errorf("host: %s command seq %d (%v): %w", c.Class, c.Seq, c.Req, c.Err)
}

// Report aggregates everything one scheduler run measured.
type Report struct {
	// Arbiter, Depth and Queues echo the configuration.
	Arbiter string
	Depth   int
	Queues  int

	// Submitted/Dispatched/Completed count host commands; Background
	// counts maintenance commands.
	Submitted, Dispatched, Completed int64
	Background                       int64

	// Errors counts host commands that completed with an FTL error (a
	// generator loop ends at the first).
	Errors int64
	// Rejected counts external submissions refused before queueing
	// (validation failures); they are not part of Submitted/Completed.
	Rejected int64

	// OutOfOrder counts host completions that retired while an
	// earlier-submitted host command was still outstanding.
	OutOfOrder int64
	// ReadsPromoted counts reads the arbiter dispatched ahead of an
	// earlier-submitted, still-pending write (read-priority at work).
	ReadsPromoted int64
	// BackgroundDeferred counts arbitration rounds in which a background
	// command yielded to pending host reads.
	BackgroundDeferred int64

	// Latency histograms per class (completion minus arrival), plus the
	// merged host distribution the headline percentiles come from.
	HostLat, ReadLat, WriteLat, BackLat *metrics.Histogram
	// Wait histograms (dispatch minus arrival): time spent queued in the
	// host layer before the FTL saw the command.
	ReadWait, WriteWait *metrics.Histogram

	// Fanout is the distribution of resources touched per host command —
	// how widely transactions split across the device.
	Fanout *metrics.IntHistogram

	// QueueDepth summarizes the outstanding host commands after every
	// event, and ChipUtil the device's mean chip busy fraction so far.
	QueueDepth, ChipUtil metrics.Running
}

func newReport(arb string, depth, queues int) *Report {
	return &Report{
		Arbiter:   arb,
		Depth:     depth,
		Queues:    queues,
		HostLat:   metrics.NewHistogram(),
		ReadLat:   metrics.NewHistogram(),
		WriteLat:  metrics.NewHistogram(),
		BackLat:   metrics.NewHistogram(),
		ReadWait:  metrics.NewHistogram(),
		WriteWait: metrics.NewHistogram(),
		Fanout:    metrics.NewIntHistogram(64),
	}
}

// MergeReports folds several schedulers' reports (a server's shards) into
// one: counters add up, and histograms and summaries merge. The result
// shares nothing with its inputs, which stay as they were; nil entries are
// skipped, and the configuration echo is the first report's.
func MergeReports(reps []*Report) *Report {
	var out *Report
	for _, r := range reps {
		if r == nil {
			continue
		}
		if out == nil {
			out = newReport(r.Arbiter, r.Depth, r.Queues)
		}
		out.Submitted += r.Submitted
		out.Dispatched += r.Dispatched
		out.Completed += r.Completed
		out.Background += r.Background
		out.Errors += r.Errors
		out.Rejected += r.Rejected
		out.OutOfOrder += r.OutOfOrder
		out.ReadsPromoted += r.ReadsPromoted
		out.BackgroundDeferred += r.BackgroundDeferred
		out.HostLat.Merge(r.HostLat)
		out.ReadLat.Merge(r.ReadLat)
		out.WriteLat.Merge(r.WriteLat)
		out.BackLat.Merge(r.BackLat)
		out.ReadWait.Merge(r.ReadWait)
		out.WriteWait.Merge(r.WriteWait)
		out.Fanout.Merge(r.Fanout)
		out.QueueDepth.Merge(r.QueueDepth)
		out.ChipUtil.Merge(r.ChipUtil)
	}
	return out
}

// String renders the headline numbers of the report.
func (r *Report) String() string {
	h := r.HostLat.Summary()
	return fmt.Sprintf("arb=%s qd=%d queues=%d done=%d ooo=%d p50=%v p99=%v",
		r.Arbiter, r.Depth, r.Queues, r.Completed, r.OutOfOrder, h.P50, h.P99)
}
