package nand

import (
	"fmt"
	"math/bits"
)

// maxAddress bounds every device address (block, page and subpage IDs):
// Geometry.Validate keeps TotalSubpages below it, which is what makes the
// reciprocal division below exact.
const maxAddress = 1 << 31

// divisor divides by a fixed d without a hardware divide. For 0 ≤ x < 2³¹
// and 1 ≤ d ≤ 2³², ⌊x/d⌋ = ⌊x·m / 2⁶³⌋ with m = ⌈2⁶³/d⌉: m·d − 2⁶³ < d, so
// the rounding error x·(m·d − 2⁶³)/(d·2⁶³) stays below 1/d and never
// carries into the quotient (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019).
type divisor struct{ d, m uint64 }

func newDivisor(d int) divisor {
	return divisor{d: uint64(d), m: (1<<63-1)/uint64(d) + 1}
}

// divmod returns x/d and x%d for 0 ≤ x < maxAddress.
func (v divisor) divmod(x int64) (q, r int) {
	hi, lo := bits.Mul64(uint64(x), v.m)
	qq := hi<<1 | lo>>63
	return int(qq), int(uint64(x) - qq*v.d)
}

// decoder holds the geometry's divisors, built once by NewDevice.
type decoder struct {
	pages  divisor // PagesPerBlock: page → (block, page index)
	chips  divisor // Chips: block → (local block, chip)
	subs   divisor // SubpagesPerPage: subpage → (page, slot)
	blkSub divisor // SubpagesPerBlock: subpage → (block, offset in block)
}

func newDecoder(g Geometry) decoder {
	return decoder{
		pages:  newDivisor(g.PagesPerBlock),
		chips:  newDivisor(g.Chips()),
		subs:   newDivisor(g.SubpagesPerPage),
		blkSub: newDivisor(g.SubpagesPerBlock()),
	}
}

// BlockOfPage returns the block holding page p and p's index within it,
// without dividing: the FTLs' hot paths decode through it. p must be a
// page of the device; Geometry.BlockOfPage serves unchecked addresses.
func (d *Device) BlockOfPage(p PageID) (BlockID, int) {
	b, pi := d.dec.pages.divmod(int64(p))
	return BlockID(b), pi
}

// BlockOfSubpage returns the block holding subpage s and s's offset
// within it (page index × SubpagesPerPage + slot), without dividing. s
// must be a subpage of the device.
func (d *Device) BlockOfSubpage(s SubpageID) (BlockID, int) {
	b, off := d.dec.blkSub.divmod(int64(s))
	return BlockID(b), off
}

// loc is an address decoded once per operation; every later step of the
// operation indexes by it, and the chip carries its own timeline indices.
// pi is zero for a block address. A struct of at most four fields is kept
// in registers, so a loc is passed by value and its methods take values:
// one more field, or its address taken, and every decode is copied through
// memory.
type loc struct {
	ch *chip
	b  BlockID
	lb int // block index within the chip
	pi int // page index within the block
}

// blockLoc decodes block b, which the caller has checked is valid.
func (d *Device) blockLoc(b BlockID) loc {
	lb, ci := d.dec.chips.divmod(int64(b))
	return loc{ch: d.chips[ci], b: b, lb: lb}
}

// pageLoc decodes page p, which the caller has checked is valid.
func (d *Device) pageLoc(p PageID) loc {
	b, pi := d.dec.pages.divmod(int64(p))
	lb, ci := d.dec.chips.divmod(int64(b))
	return loc{ch: d.chips[ci], b: BlockID(b), lb: lb, pi: pi}
}

// block returns the wear record of the block at l.
func (l loc) block() *block { return &l.ch.blocks[l.lb] }

// slots returns the cell state of the page at l and its pass counter.
func (l loc) slots() ([]subpage, *uint8) { return l.ch.page(l.lb, l.pi) }

// wear returns block b's wear record for the accessors, which have no
// error return: an address outside the device is a caller bug.
func (d *Device) wear(b BlockID) *block {
	if !d.cfg.Geometry.ValidBlock(b) {
		panic(fmt.Sprintf("nand: block %d outside the device", b))
	}
	return d.blockLoc(b).block()
}
