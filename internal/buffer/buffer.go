// Package buffer implements the controller write buffer that the FGM
// scheme and subFTL place in front of flash (paper §1, §4.1). Its job is
// to merge small asynchronous writes into full-page flushes; synchronous
// writes "must be stored right away and miss an opportunity to be merged
// in the write buffer", which is exactly how r_synch hurts the FGM scheme.
package buffer

import "fmt"

// Group is one flush unit handed to the FTL: a set of logical sectors to
// be written together. Len < pageSectors means a partial flush (a sync
// write or a drain) that an FGM FTL must pad to a full physical page and
// subFTL can service with subpage programs.
type Group struct {
	// LSNs are the logical sectors in the group, in buffer (FIFO) order.
	LSNs []int64
	// Sync marks groups produced by a synchronous write.
	Sync bool
}

// Buffer is a FIFO write buffer with duplicate absorption. It is a pure
// staging structure: it stores logical sector numbers, not data (the
// simulator's payloads are stamps generated at flush time).
type Buffer struct {
	pageSectors int
	// order[head:] is the FIFO of staged sectors; popping advances head
	// instead of re-slicing so the backing array is reused rather than
	// abandoned (the steady-state staging path must not allocate).
	order       []int64
	head        int
	resident    map[int64]struct{}
	absorbed    int64
	flushedFull int64
	flushedPart int64

	// groupsBuf and lsnArena back the groups Write and Drain return; see
	// the borrow contract on Write.
	groupsBuf []Group
	lsnArena  []int64
}

// New returns a buffer that emits full groups of pageSectors sectors.
func New(pageSectors int) *Buffer {
	if pageSectors <= 0 {
		panic(fmt.Sprintf("buffer: pageSectors = %d", pageSectors))
	}
	return &Buffer{
		pageSectors: pageSectors,
		resident:    make(map[int64]struct{}),
	}
}

// Len returns the number of buffered sectors.
func (b *Buffer) Len() int { return len(b.order) - b.head }

// staged returns the live FIFO window.
func (b *Buffer) staged() []int64 { return b.order[b.head:] }

// advance pops n sectors off the FIFO head, reclaiming the backing array
// once it empties (and compacting when the dead prefix dominates) so the
// append path reuses capacity instead of growing forever.
func (b *Buffer) advance(n int) {
	b.head += n
	if b.head == len(b.order) {
		b.order = b.order[:0]
		b.head = 0
	} else if b.head >= 256 && b.head*2 >= len(b.order) {
		m := copy(b.order, b.order[b.head:])
		b.order = b.order[:m]
		b.head = 0
	}
}

// appendGroup copies lsns into the reusable arena and appends a Group
// viewing that copy.
func (b *Buffer) appendGroup(groups []Group, lsns []int64, sync bool) []Group {
	start := len(b.lsnArena)
	b.lsnArena = append(b.lsnArena, lsns...)
	return append(groups, Group{LSNs: b.lsnArena[start:len(b.lsnArena):len(b.lsnArena)], Sync: sync})
}

// Contains reports whether lsn is buffered (a read hit).
func (b *Buffer) Contains(lsn int64) bool {
	_, ok := b.resident[lsn]
	return ok
}

// Absorbed returns how many incoming sectors were duplicate hits on
// already-buffered sectors (writes the buffer absorbed entirely).
func (b *Buffer) Absorbed() int64 { return b.absorbed }

// FlushedFull and FlushedPartial count emitted groups by kind.
func (b *Buffer) FlushedFull() int64    { return b.flushedFull }
func (b *Buffer) FlushedPartial() int64 { return b.flushedPart }

// remove drops lsn from the buffer if present.
func (b *Buffer) remove(lsn int64) {
	if _, ok := b.resident[lsn]; !ok {
		return
	}
	delete(b.resident, lsn)
	for i := b.head; i < len(b.order); i++ {
		if b.order[i] == lsn {
			b.order = append(b.order[:i], b.order[i+1:]...)
			return
		}
	}
}

// Write stages a host write of the given sectors and returns the flush
// groups it triggers, in the order they must reach flash.
//
// Synchronous writes bypass staging: any buffered copies of their sectors
// are superseded and the write is emitted immediately as one (possibly
// partial) group. Asynchronous writes are staged; whenever a full page's
// worth of sectors has accumulated, a full group is emitted.
//
// Borrow contract: the returned groups (and their LSN slices) are
// buffer-owned scratch, valid only until the next Write or Drain call; a
// retaining caller must copy. Callers consume groups before writing again,
// so the steady-state staging path allocates nothing.
func (b *Buffer) Write(lsns []int64, sync bool) []Group {
	b.groupsBuf = b.groupsBuf[:0]
	b.lsnArena = b.lsnArena[:0]
	if sync {
		out := b.appendGroup(b.groupsBuf, lsns, true)
		for _, lsn := range lsns {
			b.remove(lsn)
		}
		if len(lsns) >= b.pageSectors {
			b.flushedFull += int64(len(lsns) / b.pageSectors)
			if len(lsns)%b.pageSectors != 0 {
				b.flushedPart++
			}
		} else {
			b.flushedPart++
		}
		b.groupsBuf = out
		return out
	}
	for _, lsn := range lsns {
		if _, ok := b.resident[lsn]; ok {
			b.absorbed++ // newer version replaces the staged one in place
			continue
		}
		b.resident[lsn] = struct{}{}
		b.order = append(b.order, lsn)
	}
	out := b.groupsBuf
	for b.Len() >= b.pageSectors {
		grp := b.staged()[:b.pageSectors]
		out = b.appendGroup(out, grp, false)
		for _, lsn := range grp {
			delete(b.resident, lsn)
		}
		b.advance(b.pageSectors)
		b.flushedFull++
	}
	b.groupsBuf = out
	return out
}

// Trim drops any buffered copies of the given sectors (host discard).
func (b *Buffer) Trim(lsns []int64) {
	for _, lsn := range lsns {
		b.remove(lsn)
	}
}

// Drain flushes everything left in the buffer as one final (possibly
// partial) group. It returns nil when the buffer is empty. The returned
// groups share Write's borrow contract.
func (b *Buffer) Drain() []Group {
	if b.Len() == 0 {
		return nil
	}
	b.groupsBuf = b.groupsBuf[:0]
	b.lsnArena = b.lsnArena[:0]
	out := b.groupsBuf
	for b.Len() > 0 {
		n := b.pageSectors
		if n > b.Len() {
			n = b.Len()
		}
		grp := b.staged()[:n]
		out = b.appendGroup(out, grp, false)
		for _, lsn := range grp {
			delete(b.resident, lsn)
		}
		b.advance(n)
		if n == b.pageSectors {
			b.flushedFull++
		} else {
			b.flushedPart++
		}
	}
	b.groupsBuf = out
	return out
}
