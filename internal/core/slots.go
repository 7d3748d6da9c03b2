package core

import (
	"espftl/internal/mapping"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// slotMargin is how many region slots beyond the quota and the rotation
// width New provisions: the GC destination taken while its victim still
// drains, and a replay block after a program failure.
const slotMargin = 2

// regionSlots keeps the subpage region's per-subpage and per-page state
// for the blocks in the region only, not for every block of the device
// (the region's quota is a fraction of them, a fifth by default). A block
// takes a slot when it enters the region and returns it when it leaves;
// slot s owns entries [s*perBlock, (s+1)*perBlock) of the per-subpage
// slabs and [s*pages, (s+1)*pages) of nextIdx. The slabs only grow, by one
// slot at a new peak of region blocks, so a steady state allocates nothing.
type regionSlots struct {
	perBlock int // subpages per block
	pages    int // pages per block

	// rmap is the LSN stored at each subpage (None as -1), verAt the host
	// version stored there and writtenAt its program time (retention
	// aging). nextIdx is, per page, the next unprogrammed subpage index.
	rmap      []int32
	verAt     []uint32
	writtenAt []sim.Time
	nextIdx   []uint8

	// owner is the block holding each slot, -1 for a free slot; free
	// stacks the free slots. peak is the most slots ever held at once.
	owner []nand.BlockID
	free  []int32
	peak  int
}

// newRegionSlots provisions n slots for a geometry of pages pages of
// perPage subpages per block.
func newRegionSlots(n, pages, perPage int) regionSlots {
	per := pages * perPage
	r := regionSlots{
		perBlock:  per,
		pages:     pages,
		rmap:      make([]int32, 0, n*per),
		verAt:     make([]uint32, 0, n*per),
		writtenAt: make([]sim.Time, 0, n*per),
		nextIdx:   make([]uint8, 0, n*pages),
		owner:     make([]nand.BlockID, 0, n),
		free:      make([]int32, 0, n),
	}
	for range n {
		r.grow()
	}
	return r
}

// grow adds one free slot.
func (r *regionSlots) grow() {
	for range r.perBlock {
		r.rmap = append(r.rmap, int32(mapping.None))
	}
	r.verAt = append(r.verAt, make([]uint32, r.perBlock)...)
	r.writtenAt = append(r.writtenAt, make([]sim.Time, r.perBlock)...)
	r.nextIdx = append(r.nextIdx, make([]uint8, r.pages)...)
	r.free = append(r.free, int32(len(r.owner)))
	r.owner = append(r.owner, -1)
}

// take gives block b a free slot with every page at nextIdx 0. The slot's
// reverse entries are all None already: a block leaves the region only
// once it holds no live subpage, and each dead one had its entry reset.
func (r *regionSlots) take(b nand.BlockID) int32 {
	if len(r.free) == 0 {
		r.grow()
	}
	s := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.owner[s] = b
	clear(r.pageIdx(s))
	r.peak = max(r.peak, r.held())
	return s
}

// release returns slot s to the free stack.
func (r *regionSlots) release(s int32) {
	r.owner[s] = -1
	r.free = append(r.free, s)
}

// held returns how many slots blocks hold.
func (r *regionSlots) held() int { return len(r.owner) - len(r.free) }

// pageIdx returns slot s's per-page nextIdx entries. The slice is only
// good until the next take, which may grow the slab.
func (r *regionSlots) pageIdx(s int32) []uint8 {
	i := int(s) * r.pages
	return r.nextIdx[i : i+r.pages : i+r.pages]
}
