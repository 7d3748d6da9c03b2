package buffer

import (
	"fmt"
	"math/bits"
)

// Aligned is subFTL's write buffer (paper §4.1): it merges small
// asynchronous writes "with consecutive logical block addresses into one
// sequential write". Unlike the FGM buffer, which may pack arbitrary
// sectors into one physical page (fine-grained mapping permits that), the
// subFTL buffer can only complete *aligned logical pages*, because its
// full-page region is coarse-grained: a merged flush must be exactly the
// N_sub sectors of one logical page.
//
// Sectors that fail to merge leave the buffer either with their
// synchronous write or by write-back of the oldest page's group (capacity
// pressure or a flush), and subFTL routes them to the subpage region.
type Aligned struct {
	pageSecs   int
	maxSectors int
	masks      map[int64]uint64 // LPN -> staged-sector bitmask
	order      []int64          // LPN FIFO, oldest first
	sectors    int
	lsnBuf     []int64 // backs Oldest's result
}

// NewAligned returns a buffer holding at most maxSectors staged sectors.
func NewAligned(pageSecs, maxSectors int) *Aligned {
	if pageSecs <= 0 || pageSecs > 64 {
		panic(fmt.Sprintf("buffer: pageSecs = %d", pageSecs))
	}
	if maxSectors < pageSecs {
		panic(fmt.Sprintf("buffer: maxSectors = %d below one page", maxSectors))
	}
	return &Aligned{
		pageSecs:   pageSecs,
		maxSectors: maxSectors,
		masks:      make(map[int64]uint64),
	}
}

// Len returns the number of staged sectors.
func (b *Aligned) Len() int { return b.sectors }

// Over reports whether more than the buffer's capacity is staged; the
// owner writes back the oldest groups until it is not.
func (b *Aligned) Over() bool { return b.sectors > b.maxSectors }

// Contains reports whether lsn is staged (a read hit).
func (b *Aligned) Contains(lsn int64) bool {
	mask := b.masks[lsn/int64(b.pageSecs)]
	return mask&(1<<uint(lsn%int64(b.pageSecs))) != 0
}

// Stage adds asynchronous small-write sectors in order, absorbing
// duplicates in place, and stops after a sector that completes its logical
// page. It returns how many of lsns it consumed and whether the last one
// completed its page (lsns[n-1]'s), which the owner writes as one full
// page and then drops before staging the rest.
func (b *Aligned) Stage(lsns []int64) (n int, full bool) {
	for i, lsn := range lsns {
		lpn := lsn / int64(b.pageSecs)
		bit := uint64(1) << uint(lsn%int64(b.pageSecs))
		mask, ok := b.masks[lpn]
		if mask&bit != 0 {
			continue
		}
		if !ok {
			b.order = append(b.order, lpn)
		}
		mask |= bit
		b.masks[lpn] = mask
		b.sectors++
		if mask == (uint64(1)<<b.pageSecs)-1 {
			return i + 1, true
		}
	}
	return len(lsns), false
}

// Oldest returns the first-staged logical page and its staged sectors in
// slot order, or ok false when nothing is staged. The sector view is valid
// until the next Oldest call.
func (b *Aligned) Oldest() (lpn int64, lsns []int64, ok bool) {
	if len(b.order) == 0 {
		return 0, nil, false
	}
	lpn = b.order[0]
	mask := b.masks[lpn]
	lsns = b.lsnBuf[:0]
	for slot := 0; slot < b.pageSecs; slot++ {
		if mask&(1<<slot) != 0 {
			lsns = append(lsns, lpn*int64(b.pageSecs)+int64(slot))
		}
	}
	b.lsnBuf = lsns
	return lpn, lsns, true
}

// Drop removes every staged sector of lpn once they are on flash.
func (b *Aligned) Drop(lpn int64) {
	mask, ok := b.masks[lpn]
	if !ok {
		return
	}
	delete(b.masks, lpn)
	b.dropLPN(lpn)
	b.sectors -= bits.OnesCount64(mask)
}

func (b *Aligned) dropLPN(lpn int64) {
	for i, v := range b.order {
		if v == lpn {
			b.order = append(b.order[:i], b.order[i+1:]...)
			return
		}
	}
}

// Remove drops any staged copies of the given sectors (they are being
// superseded by a sync write, a large write, or a trim).
func (b *Aligned) Remove(lsns []int64) {
	for _, lsn := range lsns {
		lpn := lsn / int64(b.pageSecs)
		bit := uint64(1) << uint(lsn%int64(b.pageSecs))
		mask, ok := b.masks[lpn]
		if !ok || mask&bit == 0 {
			continue
		}
		mask &^= bit
		b.sectors--
		if mask == 0 {
			delete(b.masks, lpn)
			b.dropLPN(lpn)
		} else {
			b.masks[lpn] = mask
		}
	}
}
