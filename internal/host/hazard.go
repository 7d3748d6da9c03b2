package host

import "espftl/internal/workload"

// This file holds the scheduler's bookkeeping of queued commands: the
// chip-queue ring and the hazard index behind the ordering barrier. Every
// operation costs O(1) or O(sectors of the command) — never O(commands
// queued) — so an open-loop backlog of tens of thousands of commands
// schedules as cheaply as queue depth 1.

// node is one link of an intrusive, submission-ordered list. Commands are
// only ever appended in Seq order, so a list's head is its minimum Seq,
// which is all any scheduling decision needs to read. cmd is the linked
// command: its Seq orders the list, and the barrier names it as the
// blocker a refused queue head waits for.
type node struct {
	prev, next *node
	cmd        *Command
}

type list struct{ head, tail *node }

func (l *list) pushBack(n *node, c *Command) {
	n.prev, n.next, n.cmd = l.tail, nil, c
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *list) remove(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next, n.cmd = nil, nil, nil
}

// oldestBefore returns the list's oldest command if it was submitted
// before seq, else nil.
func (l *list) oldestBefore(seq int64) *Command {
	if l.head != nil && l.head.cmd.Seq < seq {
		return l.head.cmd
	}
	return nil
}

// before reports whether the list holds an entry submitted before seq.
func (l *list) before(seq int64) bool { return l.oldestBefore(seq) != nil }

// cmdQueue is a FIFO ring of commands. A popped slot is set to nil, so
// the backing array never keeps a retired command reachable.
type cmdQueue struct {
	buf     []*Command // len is zero or a power of two
	head, n int
	// parked is set while the barrier is known to refuse the queue's
	// head: the queue waits on a blocking command's waiters chain, and
	// nextWaiter links it to the next queue there (index + 1, 0 ends it).
	parked     bool
	nextWaiter int32
}

func (q *cmdQueue) front() *Command {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *cmdQueue) push(c *Command) {
	if q.n == len(q.buf) {
		grown := make([]*Command, max(8, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = c
	q.n++
}

func (q *cmdQueue) pop() *Command {
	c := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return c
}

// sector is the index record of one logical sector that some undispatched
// command covers: those commands' links, readers apart from writers and
// trims, each list in submission order.
type sector struct {
	lsn              int64
	readers, writers list
	free             *sector // freelist link
}

// secNode links one undispatched command into one sector's list.
type secNode struct {
	node
	sec *sector
	sib *secNode // the same command's next sector; freelist link when pooled
}

// hazards indexes the undispatched host commands by what can block a
// dispatch. Memory is proportional to the sectors pending commands cover,
// not to the logical address space: a sector record exists only while a
// list of it is non-empty. The map is only ever looked up, inserted into
// and deleted from — iterating it would make dispatch order depend on Go's
// randomized map order.
type hazards struct {
	sectors map[int64]*sector
	// all holds every pending command, writes every pending write-class
	// command (writes, trims, flushes), flushes the pending flushes alone.
	all, writes, flushes list

	freeNodes *secNode
	freeSecs  *sector
}

// slab is how many index records one pool refill allocates.
const slab = 128

func (h *hazards) newNode() *secNode {
	if h.freeNodes == nil {
		s := make([]secNode, slab)
		for i := range s {
			s[i].sib, h.freeNodes = h.freeNodes, &s[i]
		}
	}
	n := h.freeNodes
	h.freeNodes, n.sib = n.sib, nil
	return n
}

func (h *hazards) sectorOf(lsn int64) *sector {
	if sec := h.sectors[lsn]; sec != nil {
		return sec
	}
	if h.freeSecs == nil {
		s := make([]sector, slab)
		for i := range s {
			s[i].free, h.freeSecs = h.freeSecs, &s[i]
		}
	}
	sec := h.freeSecs
	h.freeSecs, sec.free = sec.free, nil
	sec.lsn = lsn
	h.sectors[lsn] = sec
	return sec
}

// add links a newly queued command into the pending list, then once per
// sector it covers, or into the flush list (a flush covers no sectors and
// orders against everything).
func (h *hazards) add(c *Command) {
	h.all.pushBack(&c.und, c)
	if c.Class == ClassWrite {
		h.writes.pushBack(&c.wr, c)
	}
	if c.Req.Op == workload.OpFlush {
		h.flushes.pushBack(&c.fl, c)
		return
	}
	for i := 0; i < c.Req.Sectors; i++ {
		n := h.newNode()
		n.sec = h.sectorOf(c.Req.LSN + int64(i))
		if c.Class == ClassRead {
			n.sec.readers.pushBack(&n.node, c)
		} else {
			n.sec.writers.pushBack(&n.node, c)
		}
		n.sib, c.haz = c.haz, n
	}
}

// remove unlinks a command leaving its chip queue for dispatch and
// returns its nodes, and any sector record they emptied, to the pools.
func (h *hazards) remove(c *Command) {
	h.all.remove(&c.und)
	if c.Class == ClassWrite {
		h.writes.remove(&c.wr)
	}
	if c.Req.Op == workload.OpFlush {
		h.flushes.remove(&c.fl)
		return
	}
	for n := c.haz; n != nil; {
		sec, next := n.sec, n.sib
		if c.Class == ClassRead {
			sec.readers.remove(&n.node)
		} else {
			sec.writers.remove(&n.node)
		}
		if sec.readers.head == nil && sec.writers.head == nil {
			delete(h.sectors, sec.lsn)
			sec.free, h.freeSecs = h.freeSecs, sec
		}
		n.sib, h.freeNodes = h.freeNodes, n
		n = next
	}
	c.haz = nil
}

// blocker returns an earlier-submitted undispatched command that
// conflicts with c, or nil when the barrier lets c dispatch. A flush
// conflicts with every earlier command, so its blocker is the oldest
// undispatched one. A read, write or trim is blocked by an earlier flush,
// or, on any sector it covers, by an earlier writer — and, when c itself
// mutates, an earlier reader. Sector granularity makes sharing a record
// the same thing as overlapping, so the list heads decide exactly.
func (h *hazards) blocker(c *Command) *Command {
	if c.Req.Op == workload.OpFlush {
		return h.all.oldestBefore(c.Seq)
	}
	if b := h.flushes.oldestBefore(c.Seq); b != nil {
		return b
	}
	for n := c.haz; n != nil; n = n.sib {
		if b := n.sec.writers.oldestBefore(c.Seq); b != nil {
			return b
		}
		if c.Class != ClassRead {
			if b := n.sec.readers.oldestBefore(c.Seq); b != nil {
				return b
			}
		}
	}
	return nil
}
