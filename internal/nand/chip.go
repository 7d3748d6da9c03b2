package nand

import (
	"espftl/internal/sim"
)

// subpage is the persistent state of one subpage since the last erase of
// its block, packed to 24 bytes: cell state is most of a device's memory
// and every program, read and erase streams through it. Each field is as
// wide as its values: the program entry points refuse an LSN outside
// [PaddingLSN, maxAddress) and the device stops before its program
// sequence needs more than 40 bits.
type subpage struct {
	// programmedAt is the virtual time of the program, for retention aging.
	programmedAt sim.Time
	// lsn and version are the stored payload's integrity fingerprint (its
	// Stamp).
	lsn     int32
	version uint32
	// seqLo and seqHi are the low 32 and high 8 bits of the device-global
	// sequence number of the program operation that wrote this subpage;
	// all slots of one op share it.
	seqLo uint32
	seqHi uint8
	// flags holds the subProgrammed, subDestroyed and subTorn bits; the
	// other five are free.
	flags uint8
	// npp is the subpage's N^k_pp type: the number of program passes the
	// page had received before this subpage was programmed.
	npp NppType
	// tag is the FTL region tag recorded in the OOB at program time.
	tag uint8
}

// maxSeq bounds the device's program sequence: subpage keeps 40 bits of
// it, room for 10^12 program operations.
const maxSeq = 1<<40 - 1

// subpage.flags bits.
const (
	// subProgrammed is set once the subpage has been written in some pass.
	subProgrammed uint8 = 1 << iota
	// subDestroyed is set when a later ESP pass on the same page (or an
	// aborted program) corrupts this subpage's content beyond the ECC limit.
	subDestroyed
	// subTorn is set when power was cut mid-program: the cells hold a partial
	// charge distribution that is detectably neither erased nor valid (the
	// "open page" signature real controllers probe for at mount).
	subTorn
)

func (sp *subpage) stamp() Stamp { return Stamp{LSN: int64(sp.lsn), Version: sp.version} }

func (sp *subpage) seq() uint64 { return uint64(sp.seqHi)<<32 | uint64(sp.seqLo) }

// program records a program of the slot. It sets every field, as a
// composite literal would, but store by store: the compiler builds a
// literal on the stack and copies it in wider loads than its stores,
// which stalls on every slot written.
func (sp *subpage) program(st Stamp, npp NppType, at sim.Time, seq uint64, tag uint8) {
	sp.programmedAt, sp.seqLo, sp.seqHi = at, uint32(seq), uint8(seq>>32)
	sp.lsn, sp.version = int32(st.LSN), st.Version
	sp.flags, sp.npp, sp.tag = subProgrammed, npp, tag
}

// block is the persistent per-block wear state.
type block struct {
	eraseCount int
	// effWear is the block's effective wear in deep-erase equivalents: the
	// sum of the depths of every erase it has received. With only
	// full-depth erases it equals float64(eraseCount) exactly (integer
	// additions in float64 are exact far beyond any reachable cycle count).
	effWear float64
	// lastDepth is the depth of the block's most recent erase; it scales
	// the retention margin of everything programmed since. Zero (never
	// erased) reads as full depth in the retention model.
	lastDepth EraseDepth
}

// ratedWear is the block's erase count as a fraction of RatedPE, the wear
// the fault injector scales its failure probabilities by.
func (b *block) ratedWear() float64 { return float64(b.eraseCount) / RatedPE }

// chip models one NAND die: an array of blocks with ESP-aware program
// semantics. The chip is purely functional state; timing lives in Device.
type chip struct {
	// index is the chip's position in Device.chips, which is also its
	// timeline's in Device.tl, and bus the index there of its channel
	// bus's timeline.
	index, bus int
	geo        Geometry
	blocks     []block
	// subs is the cell state of every subpage of the die in one flat array,
	// indexed (localBlock*PagesPerBlock+page)*SubpagesPerPage+sub, so a
	// page's slots are adjacent and a block's are one contiguous run.
	subs []subpage
	// passes counts, per page (localBlock*PagesPerBlock+page), the program
	// operations since the last erase. A full-page program counts as one
	// pass; each ESP subpage program is one pass.
	passes []uint8
}

// newChip builds chip index of a device of geometry geo.
func newChip(geo Geometry, index int) *chip {
	pages := geo.BlocksPerChip * geo.PagesPerBlock
	return &chip{
		index:  index,
		bus:    geo.Chips() + index%geo.Channels,
		geo:    geo,
		blocks: make([]block, geo.BlocksPerChip),
		subs:   make([]subpage, pages*geo.SubpagesPerPage),
		passes: make([]uint8, pages),
	}
}

// page returns the slots of one page and its pass counter.
func (c *chip) page(localBlock, pageIdx int) ([]subpage, *uint8) {
	p := localBlock*c.geo.PagesPerBlock + pageIdx
	n := c.geo.SubpagesPerPage
	return c.subs[p*n : (p+1)*n : (p+1)*n], &c.passes[p]
}

// erase resets every page of the block and bumps its wear counters: one
// raw erase cycle, depth deep-erase equivalents of effective wear.
func (c *chip) erase(localBlock int, depth EraseDepth) {
	blk := &c.blocks[localBlock]
	blk.eraseCount++
	blk.effWear += float64(depth)
	blk.lastDepth = depth
	p := localBlock * c.geo.PagesPerBlock
	clear(c.passes[p : p+c.geo.PagesPerBlock])
	clear(c.subs[p*c.geo.SubpagesPerPage : (p+c.geo.PagesPerBlock)*c.geo.SubpagesPerPage])
}

// programPage writes all subpages of an erased page in one pass. Every
// subpage becomes N⁰pp-type. Returns ErrReprogram if any subpage of the
// page has been programmed since the last erase.
func (c *chip) programPage(localBlock, pageIdx int, stamps []Stamp, at sim.Time, seq uint64, tag uint8) error {
	subs, passes := c.page(localBlock, pageIdx)
	if *passes != 0 {
		return ErrReprogram
	}
	*passes = 1
	for s := range subs {
		st := Padding
		if s < len(stamps) {
			st = stamps[s]
		}
		subs[s].program(st, 0, at, seq, tag)
	}
	return nil
}

// programSubpages performs one ESP pass: it writes len(stamps)
// not-yet-programmed subpages starting at slot first (the SBPI scheme
// selects bit lines individually, so a pass can carry several) and
// destroys the content of every previously programmed subpage of the page
// (cell-to-cell coupling and program disturbance, paper §3.2). Every
// subpage written in the pass gets the same N^k_pp type: the number of
// passes that preceded this one.
func (c *chip) programSubpages(localBlock, pageIdx, first int, stamps []Stamp, at sim.Time, seq uint64, tag uint8) error {
	slots, passes := c.page(localBlock, pageIdx)
	run := slots[first : first+len(stamps)]
	for i := range run {
		if run[i].flags&subProgrammed != 0 {
			return ErrReprogram
		}
	}
	// The run is unprogrammed, so these are exactly the slots outside it.
	for s := range slots {
		if slots[s].flags&subProgrammed != 0 {
			slots[s].flags |= subDestroyed
		}
	}
	for i := range run {
		run[i].program(stamps[i], NppType(*passes), at, seq, tag)
	}
	*passes++
	return nil
}

// tornProgram models a program operation interrupted by power loss: the n
// target slots from first were partially written and come back torn
// (unreadable, with a detectable open-page signature). Previously
// programmed neighbours are NOT destroyed — the interrupted pass never
// finished the voltage ramps that cause cross-coupling beyond the ECC
// margin — which is what lets an in-place ESP shift survive a crash
// without losing its source copies. The pass still counts toward N^k_pp
// bookkeeping. A target that was already programmed (a would-be
// ErrReprogram) is left untouched: the op was invalid and changed nothing
// before power died.
func (c *chip) tornProgram(localBlock, pageIdx, first, n int, at sim.Time) {
	slots, passes := c.page(localBlock, pageIdx)
	run := slots[first : first+n]
	for i := range run {
		if run[i].flags&subProgrammed != 0 {
			return
		}
	}
	for i := range run {
		run[i] = subpage{
			flags:        subProgrammed | subTorn,
			npp:          NppType(*passes),
			programmedAt: at,
		}
	}
	*passes++
}

// failProgram models an aborted program operation on the n subpage slots
// from first: the cells were partially written, so their content (and
// nothing else's) is unreadable. The slots keep their programmed/pass
// bookkeeping — the physical pass did happen — but read back as destroyed.
func (c *chip) failProgram(localBlock, pageIdx, first, n int) {
	slots, _ := c.page(localBlock, pageIdx)
	run := slots[first : first+n]
	for i := range run {
		run[i].flags |= subDestroyed
	}
}

// unreadable returns the sentinel for a slot whose cells hold no decodable
// payload — erased, torn or ESP-destroyed, checked in that order — or nil.
func (sp *subpage) unreadable() error {
	switch {
	case sp.flags&subProgrammed == 0:
		return ErrNotProgrammed
	case sp.flags&subTorn != 0:
		return ErrTorn
	case sp.flags&subDestroyed != 0:
		return ErrDestroyed
	}
	return nil
}

// SubpageInfo is a read-only snapshot of device-side subpage state, used by
// tests and by introspection tooling. FTLs keep their own metadata and do
// not consult it on the data path.
type SubpageInfo struct {
	Programmed   bool
	Destroyed    bool
	Torn         bool
	Npp          NppType
	ProgrammedAt sim.Time
	Stamp        Stamp
	Seq          uint64
	Tag          uint8
}

func (c *chip) subpageInfo(localBlock, pageIdx, sub int) SubpageInfo {
	slots, _ := c.page(localBlock, pageIdx)
	sp := &slots[sub]
	return SubpageInfo{
		Programmed:   sp.flags&subProgrammed != 0,
		Destroyed:    sp.flags&subDestroyed != 0,
		Torn:         sp.flags&subTorn != 0,
		Npp:          sp.npp,
		ProgrammedAt: sp.programmedAt,
		Stamp:        sp.stamp(),
		Seq:          sp.seq(),
		Tag:          sp.tag,
	}
}

// OOBState classifies what a mount-time OOB scan observes in one subpage
// slot. The spare area shares the payload's ECC envelope, so a slot whose
// content was destroyed by a later ESP pass exposes no OOB either; torn
// slots are distinguishable from garbage by the partial-program charge
// signature controllers use for open-page detection.
type OOBState uint8

const (
	// OOBErased: the slot was never programmed since the last erase.
	OOBErased OOBState = iota
	// OOBValid: the slot holds a decodable OOB record.
	OOBValid
	// OOBGarbage: the slot was programmed but its content (payload and
	// spare area alike) is gone — destroyed by a later ESP pass or by an
	// aborted program.
	OOBGarbage
	// OOBTorn: the slot's program was cut by power loss mid-operation.
	OOBTorn
)

// SubpageOOB is one slot's contribution to a mount-time scan.
type SubpageOOB struct {
	State OOBState
	// OOB is meaningful only when State is OOBValid.
	OOB OOB
}

// pageOOB snapshots the out-of-band area of every slot of one page into
// out (caller-supplied, len == SubpagesPerPage), as a single-sense scan
// would observe it. Valid slots run their records through the wire
// encoding so the scan exercises the same decode path a real controller
// would.
func (c *chip) pageOOB(localBlock, pageIdx int, out []SubpageOOB) []SubpageOOB {
	slots, _ := c.page(localBlock, pageIdx)
	for s := range slots {
		sp := &slots[s]
		switch {
		case sp.flags&subProgrammed == 0:
			out[s] = SubpageOOB{State: OOBErased}
		case sp.flags&subTorn != 0:
			out[s] = SubpageOOB{State: OOBTorn}
		case sp.flags&subDestroyed != 0:
			out[s] = SubpageOOB{State: OOBGarbage}
		default:
			enc := EncodeOOB(OOB{
				Stamp:        sp.stamp(),
				Seq:          sp.seq(),
				Npp:          sp.npp,
				ProgrammedAt: sp.programmedAt,
				Tag:          sp.tag,
			})
			rec, err := DecodeOOB(enc[:])
			if err != nil {
				out[s] = SubpageOOB{State: OOBGarbage}
				continue
			}
			out[s] = SubpageOOB{State: OOBValid, OOB: rec}
		}
	}
	return out
}
