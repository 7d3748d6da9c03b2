package ftl

import (
	"fmt"
	"math/bits"

	"espftl/internal/nand"
)

// validIndex keeps the manager's open and full blocks ordered by (valid
// count, BlockID) within each (role, state) class, which is the order every
// victim and round-advance choice is made in. One block-ID bitmap per
// (class, valid count) makes a block's move between buckets two bit flips,
// and "lowest ID in the lowest non-empty bucket" a find-first-set over a
// few words instead of a walk over every block of the device.
type validIndex struct {
	words    int // uint64 words per block-ID bitmap
	sumWords int // uint64 words per class in nonEmpty
	buckets  int // valid counts are [0, buckets)
	// bitmap[(class*buckets+valid)*words:][:words] has bit b set iff block b
	// is in that class with that valid count; pop counts its set bits and
	// nonEmpty[class*sumWords:][:sumWords] has bit v set iff pop is non-zero.
	bitmap   []uint64
	pop      []int32
	nonEmpty []uint64
}

// indexClasses is the number of (role, state) classes: {full, sub} x
// {open, full}. Free and bad blocks are in no class.
const indexClasses = 4

// indexClass maps an open or full block's role and state to its class.
func indexClass(role Role, state BlockState) int {
	return int(role-RoleFull)*2 + int(state-StateOpen)
}

func newValidIndex(blocks, maxValid int) validIndex {
	x := validIndex{
		words:    (blocks + 63) / 64,
		sumWords: (maxValid + 64) / 64,
		buckets:  maxValid + 1,
	}
	x.bitmap = make([]uint64, indexClasses*x.buckets*x.words)
	x.pop = make([]int32, indexClasses*x.buckets)
	x.nonEmpty = make([]uint64, indexClasses*x.sumWords)
	return x
}

func (x *validIndex) insert(class, valid int, b nand.BlockID) {
	bucket := class*x.buckets + valid
	x.bitmap[bucket*x.words+int(b)>>6] |= 1 << (uint(b) & 63)
	if x.pop[bucket]++; x.pop[bucket] == 1 {
		x.nonEmpty[class*x.sumWords+valid>>6] |= 1 << (uint(valid) & 63)
	}
}

func (x *validIndex) remove(class, valid int, b nand.BlockID) {
	bucket := class*x.buckets + valid
	x.bitmap[bucket*x.words+int(b)>>6] &^= 1 << (uint(b) & 63)
	if x.pop[bucket]--; x.pop[bucket] == 0 {
		x.nonEmpty[class*x.sumWords+valid>>6] &^= 1 << (uint(valid) & 63)
	}
}

func (x *validIndex) has(class, valid int, b nand.BlockID) bool {
	return x.bucket(class, valid)[int(b)>>6]&(1<<(uint(b)&63)) != 0
}

// population returns the number of entries across all bitmaps, after
// checking each bitmap's count and non-empty bit against its contents.
func (x *validIndex) population() (int, error) {
	total := 0
	for class := 0; class < indexClasses; class++ {
		for valid := 0; valid < x.buckets; valid++ {
			n := 0
			for _, w := range x.bucket(class, valid) {
				n += bits.OnesCount64(w)
			}
			marked := x.nonEmpty[class*x.sumWords+valid>>6]&(1<<(uint(valid)&63)) != 0
			if int(x.pop[class*x.buckets+valid]) != n || marked != (n > 0) {
				return 0, fmt.Errorf("ftl: index class %d valid %d holds %d blocks, count says %d, non-empty bit %v",
					class, valid, n, x.pop[class*x.buckets+valid], marked)
			}
			total += n
		}
	}
	return total, nil
}

// seek returns the first block of the class at or after position (valid,
// from) in ascending (valid count, BlockID) order.
func (x *validIndex) seek(class, valid int, from nand.BlockID) (nand.BlockID, bool) {
	if valid >= x.buckets {
		return 0, false
	}
	if x.pop[class*x.buckets+valid] > 0 {
		if b, ok := nextSet(x.bucket(class, valid), int(from)); ok {
			return nand.BlockID(b), true
		}
	}
	v, ok := nextSet(x.nonEmpty[class*x.sumWords:][:x.sumWords], valid+1)
	if !ok {
		return 0, false
	}
	b, ok := nextSet(x.bucket(class, v), 0)
	return nand.BlockID(b), ok
}

func (x *validIndex) bucket(class, valid int) []uint64 {
	return x.bitmap[(class*x.buckets+valid)*x.words:][:x.words]
}

// nextSet returns the index of the first set bit at or after from.
func nextSet(bm []uint64, from int) (int, bool) {
	w := from >> 6
	if w >= len(bm) {
		return 0, false
	}
	cur := bm[w] &^ (1<<(uint(from)&63) - 1)
	for cur == 0 {
		if w++; w == len(bm) {
			return 0, false
		}
		cur = bm[w]
	}
	return w<<6 + bits.TrailingZeros64(cur), true
}
