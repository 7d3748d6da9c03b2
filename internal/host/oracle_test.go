package host

import (
	"testing"

	"espftl/internal/workload"
)

// This file keeps the scheduler's original linear scans as reference
// implementations and attaches them to a live Scheduler, so the tests in
// differential_test.go can assert at every single decision that the hazard
// index, the pending-write list, the outstanding list, the ready mask and
// the undispatched list answer exactly what the scans over the live
// queues answer.

// at returns the i-th queued command, oldest first.
func (q *cmdQueue) at(i int) *Command { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// conflicts reports a data hazard between two host commands: overlapping
// sector ranges where at least one side mutates (write or trim). A flush
// is a full barrier both ways — it must observe every earlier write and
// later writes must not be reordered ahead of the durability point it
// acknowledges.
func conflicts(a, b *Command) bool {
	if a.Class == ClassRead && b.Class == ClassRead {
		return false
	}
	if a.Req.Op == workload.OpFlush || b.Req.Op == workload.OpFlush {
		return true
	}
	aEnd := a.Req.LSN + int64(a.Req.Sectors)
	bEnd := b.Req.LSN + int64(b.Req.Sectors)
	return a.Req.LSN < bEnd && b.Req.LSN < aEnd
}

// older calls fn for every undispatched command submitted before seq,
// queue by queue, until fn returns true; it reports whether one did.
func (s *Scheduler) older(seq int64, fn func(*Command) bool) bool {
	for i := range s.cq {
		q := &s.cq[i]
		for j := 0; j < q.n; j++ {
			o := q.at(j)
			if o.Seq >= seq {
				break // queues are seq-ordered
			}
			if fn(o) {
				return true
			}
		}
	}
	return false
}

func (s *Scheduler) refDispatchable(c *Command) bool {
	if c.Chip < s.chips && s.chipBusy[c.Chip] {
		return false
	}
	return !s.older(c.Seq, func(o *Command) bool { return conflicts(o, c) })
}

func (s *Scheduler) refOlderWritePending(seq int64) bool {
	return s.older(seq, func(o *Command) bool { return o.Class == ClassWrite })
}

// refOutOfOrder scans every incomplete host command — the queued ones and
// the dispatched ones waiting in the event heap — for one submitted
// before the command that just retired.
func (s *Scheduler) refOutOfOrder(c *Command) bool {
	if s.older(c.Seq, func(*Command) bool { return true }) {
		return true
	}
	for _, ev := range s.events {
		if ev.cmd != nil && ev.cmd.Class != ClassBackground && ev.cmd.Seq < c.Seq {
			return true
		}
	}
	return false
}

// Oracle is the differential checker AttachOracle installs. Its counters
// say how much of the decision space a run exercised.
type Oracle struct {
	t     testing.TB
	s     *Scheduler
	inner Arbiter

	promoted, outOfOrder int64 // report counters at the last observation

	// Barrier counts dispatchable calls, Blocked those a hazard refused,
	// Promoted and OutOfOrder the positive answers of the other two
	// decisions.
	Barrier, Blocked, Promoted, OutOfOrder int
	// MaxBacklog is the most undispatched host commands seen at once, and
	// MaxContended the most commands of the scarcer kind (readers against
	// writers) seen pending on a single sector.
	MaxBacklog, MaxContended int
}

// AttachOracle wraps the scheduler's arbiter and hooks so that every
// barrier, read-promotion and out-of-order decision of the coming run is
// compared with its reference scan; a mismatch fails t at once.
func AttachOracle(t testing.TB, s *Scheduler) *Oracle {
	o := &Oracle{t: t, s: s, inner: s.cfg.Arbiter}
	s.cfg.Arbiter = o
	s.onDispatch = o.dispatched
	s.onRetire = o.retired
	return o
}

// Name implements Arbiter.
func (o *Oracle) Name() string { return o.inner.Name() }

// Pick implements Arbiter: the wrapped policy decides, over a barrier
// predicate that is checked on every call. Before it does, the ready mask
// and the heads it produced are checked against every queue, and a copy
// of the policy picks from the heads of all non-empty queues, busy chips
// included, under the reference barrier: the real pick must choose the
// same command.
func (o *Oracle) Pick(heads []*Command, dispatchable func(*Command) bool) int {
	o.MaxBacklog = max(o.MaxBacklog, o.s.pendingHost)
	o.checkReady(heads)
	want := o.refPick()
	i := o.inner.Pick(heads, func(c *Command) bool {
		got, want := dispatchable(c), o.s.refDispatchable(c)
		if got != want {
			o.t.Fatalf("dispatchable(seq %d %v) = %v, reference scan says %v", c.Seq, c.Req, got, want)
		}
		if c.Req.Op == workload.OpFlush {
			if got, want := !o.s.hz.all.before(c.Seq), o.s.refOldestFront(c.Seq); got != want {
				o.t.Fatalf("flush seq %d oldest undispatched: list says %v, queue fronts say %v", c.Seq, got, want)
			}
		}
		o.Barrier++
		if !got {
			o.Blocked++
		}
		for n := c.haz; n != nil; n = n.sib {
			o.MaxContended = max(o.MaxContended, min(n.sec.readers.len(), n.sec.writers.len()))
		}
		return got
	})
	var got *Command
	if i >= 0 {
		got = heads[i]
	}
	if got != want {
		o.t.Fatalf("%s picked %v from the ready heads, %v from every queue head", o.inner.Name(), got, want)
	}
	return i
}

// checkReady asserts that the ready mask is exactly the set of non-empty,
// unparked queues whose chip is idle (or that are the unrouted queue),
// that heads holds their fronts in queue order, and that the reference
// barrier refuses the head of every parked queue: a queue still parked
// after its head became dispatchable is a lost wakeup.
func (o *Oracle) checkReady(heads []*Command) {
	s := o.s
	k := 0
	for q := range s.cq {
		cq := &s.cq[q]
		idle := q == s.chips || !s.chipBusy[q]
		if cq.parked && (cq.n == 0 || !idle || s.refDispatchable(cq.front())) {
			o.t.Fatalf("queue %d is parked with %d queued, chip idle %v: its head must be queued and blocked", q, cq.n, idle)
		}
		want := cq.n > 0 && idle && !cq.parked
		if got := s.ready[q>>6]>>(q&63)&1 == 1; got != want {
			o.t.Fatalf("queue %d ready bit %v, want %v (%d queued, chip busy %v, parked %v)", q, got, want, cq.n, !idle, cq.parked)
		}
		if !want {
			continue
		}
		if k >= len(heads) || heads[k] != s.cq[q].front() {
			o.t.Fatalf("heads[%d] is not the front of ready queue %d", k, q)
		}
		k++
	}
	if k != len(heads) {
		o.t.Fatalf("%d heads handed to Pick, %d queues ready", len(heads), k)
	}
}

// refPick is what the wrapped policy, from its current state, picks among
// the fronts of every non-empty queue under the reference barrier (which
// refuses a busy chip). It runs on a copy, so the policy's own state —
// read-priority's bypass counter — is left to the real pick.
func (o *Oracle) refPick() *Command {
	var a Arbiter
	switch in := o.inner.(type) {
	case FIFO:
		a = in
	case *ReadPriority:
		cp := *in
		a = &cp
	default:
		o.t.Fatalf("oracle cannot copy arbiter %T", in)
	}
	var all []*Command
	for q := range o.s.cq {
		if c := o.s.cq[q].front(); c != nil {
			all = append(all, c)
		}
	}
	if i := a.Pick(all, o.s.refDispatchable); i >= 0 {
		return all[i]
	}
	return nil
}

// refOldestFront reports whether no queue front was submitted before seq:
// the queues are Seq-ordered, so their fronts hold the oldest
// undispatched command.
func (s *Scheduler) refOldestFront(seq int64) bool {
	for i := range s.cq {
		if h := s.cq[i].front(); h != nil && h.Seq < seq {
			return false
		}
	}
	return true
}

func (l *list) len() (n int) {
	for e := l.head; e != nil; e = e.next {
		n++
	}
	return n
}

// dispatched runs as the dispatch hook: the command has left its queue
// and the index, exactly the state olderWritePending was asked in.
func (o *Oracle) dispatched(c *Command) {
	got := o.s.rep.ReadsPromoted != o.promoted
	o.promoted = o.s.rep.ReadsPromoted
	want := c.Class == ClassRead && o.s.refOlderWritePending(c.Seq)
	if got != want {
		o.t.Fatalf("%s seq %d counted as promoted read: %v, reference scan says %v", c.Class, c.Seq, got, want)
	}
	if got {
		o.Promoted++
	}
}

func (o *Oracle) retired(c *Command) {
	got := o.s.rep.OutOfOrder != o.outOfOrder
	o.outOfOrder = o.s.rep.OutOfOrder
	if want := o.s.refOutOfOrder(c); got != want {
		o.t.Fatalf("seq %d retired out of order: %v, reference scan says %v", c.Seq, got, want)
	}
	if got {
		o.OutOfOrder++
	}
}

// Retained counts the ways a finished scheduler still reaches commands it
// has retired: non-nil slots anywhere in a chip queue's, the event heap's,
// the freelist's or the heads scratch's backing array beyond the live
// elements, links left in the hazard index, a queue still parked or
// chained to a waiters list, and links left in a record on the freelist,
// in a handed-out slab record or in a pooled index node.
func (s *Scheduler) Retained() (n int) {
	for i := range s.cq {
		for _, c := range s.cq[i].buf[:cap(s.cq[i].buf)] {
			if c != nil {
				n++
			}
		}
		if s.cq[i].parked || s.cq[i].nextWaiter != 0 {
			n++
		}
	}
	for _, ev := range s.events[:cap(s.events)] {
		if ev.cmd != nil {
			n++
		}
	}
	for _, c := range s.cmdFree[len(s.cmdFree):cap(s.cmdFree)] {
		if c != nil {
			n++
		}
	}
	for _, c := range s.heads[:cap(s.heads)] {
		if c != nil {
			n++
		}
	}
	for _, c := range s.cmdFree {
		if c.linked() {
			n++
		}
	}
	for i := range s.cmdSlab[:s.slabNext] {
		if s.cmdSlab[i].linked() {
			n++
		}
	}
	for sn := s.hz.freeNodes; sn != nil; sn = sn.sib {
		if sn.prev != nil || sn.next != nil || sn.cmd != nil {
			n++
		}
	}
	if s.outstanding.head != nil || s.hz.all.head != nil || s.hz.writes.head != nil || s.hz.flushes.head != nil {
		n++
	}
	return n + len(s.hz.sectors)
}

// linked reports whether a command that should be retired still holds a
// completion, an error, hazard nodes, parked waiters or a list link.
func (c *Command) linked() bool {
	if c.comp != nil || c.Err != nil || c.haz != nil || c.waiters != 0 {
		return true
	}
	for _, l := range []*node{&c.out, &c.und, &c.wr, &c.fl} {
		if l.prev != nil || l.next != nil || l.cmd != nil {
			return true
		}
	}
	return false
}
