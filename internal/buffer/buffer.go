// Package buffer implements the controller write buffer that the FGM
// scheme and subFTL place in front of flash (paper §1, §4.1). Its job is
// to merge small asynchronous writes into full-page flushes; synchronous
// writes "must be stored right away and miss an opportunity to be merged
// in the write buffer", which is exactly how r_synch hurts the FGM scheme.
//
// Both buffers only stage sectors and report their oldest group; the FTL
// decides when a staged sector is done. It writes a group to flash, then
// drops it, so a staged sector leaves the buffer only once it has landed:
// a failed write-back leaves the group staged (still served from RAM) for
// the next flush to retry, and a read-only device refuses write-back with
// ftl.ErrReadOnly rather than relocate data at its capacity floor.
package buffer

// Buffer is fgmFTL's FIFO write buffer with duplicate absorption. It is a
// pure staging structure: it stores logical sector numbers, not data (the
// simulator's payloads are stamps generated at flush time). Synchronous
// writes never enter it.
type Buffer struct {
	// order[head:] is the FIFO of staged sectors; popping advances head
	// instead of re-slicing so the backing array is reused rather than
	// abandoned (the steady-state staging path must not allocate).
	order    []int64
	head     int
	resident map[int64]struct{}
	absorbed int64
}

// New returns an empty buffer.
func New() *Buffer {
	return &Buffer{resident: make(map[int64]struct{})}
}

// Len returns the number of buffered sectors.
func (b *Buffer) Len() int { return len(b.order) - b.head }

// Contains reports whether lsn is buffered (a read hit).
func (b *Buffer) Contains(lsn int64) bool {
	_, ok := b.resident[lsn]
	return ok
}

// Absorbed returns how many incoming sectors were duplicate hits on
// already-buffered sectors (writes the buffer absorbed entirely).
func (b *Buffer) Absorbed() int64 { return b.absorbed }

// Stage appends an asynchronous write's sectors to the FIFO; a sector
// already staged is absorbed in place (the newer version replaces it).
func (b *Buffer) Stage(lsns []int64) {
	for _, lsn := range lsns {
		if _, ok := b.resident[lsn]; ok {
			b.absorbed++
			continue
		}
		b.resident[lsn] = struct{}{}
		b.order = append(b.order, lsn)
	}
}

// Oldest returns up to n of the oldest staged sectors in FIFO order. The
// view is valid until the buffer next changes.
func (b *Buffer) Oldest(n int) []int64 {
	staged := b.order[b.head:]
	n = min(n, len(staged))
	return staged[:n:n]
}

// Pop drops the n oldest staged sectors once they are on flash,
// reclaiming the backing array once it empties (and compacting when the
// dead prefix dominates) so the append path reuses capacity instead of
// growing forever.
func (b *Buffer) Pop(n int) {
	for _, lsn := range b.order[b.head : b.head+n] {
		delete(b.resident, lsn)
	}
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

// Trim drops any buffered copies of the given sectors (a host discard or
// a synchronous write superseding them).
func (b *Buffer) Trim(lsns []int64) {
	for _, lsn := range lsns {
		if _, ok := b.resident[lsn]; !ok {
			continue
		}
		delete(b.resident, lsn)
		for i := b.head; i < len(b.order); i++ {
			if b.order[i] == lsn {
				b.order = append(b.order[:i], b.order[i+1:]...)
				break
			}
		}
	}
}
