// Package nand models a multi-channel NAND flash subsystem with support for
// erase-free subpage programming (ESP), the device-level mechanism the
// paper builds on.
//
// The model captures, at the fidelity the FTL experiments need:
//
//   - geometry: channels × chips × blocks × pages × subpages;
//   - the flash op set: page read, full-page program, subpage program
//     (ESP), and block erase, each with a configurable latency;
//   - ESP semantics: a page may be programmed multiple times without an
//     intervening erase, one not-yet-programmed subpage per pass, and each
//     pass destroys the content of every previously programmed subpage of
//     that page (cell-to-cell coupling plus program disturbance);
//   - the subpage-aware retention model of the paper's §3.3: a subpage
//     programmed after k earlier passes is an N^k_pp-type subpage whose
//     raw bit error rate grows with k, with retention age, and with block
//     wear, becoming uncorrectable past its retention capability;
//   - timing: every op occupies its chip and its channel bus on virtual
//     timelines, so multi-chip parallelism and queueing emerge naturally.
//
// Real NAND additionally requires pages within a block to be programmed in
// sequential order. ESP deliberately relaxes the re-program prohibition on
// earlier word lines (that relaxation is the paper's contribution), so this
// model does not enforce WL ordering; the FTLs above it still allocate
// full-page writes sequentially as conventional FTLs must.
package nand

import (
	"fmt"
)

// Geometry describes the physical organization of the flash subsystem.
type Geometry struct {
	// Channels is the number of independent channel buses.
	Channels int
	// ChipsPerChannel is the number of NAND chips sharing each channel.
	ChipsPerChannel int
	// BlocksPerChip is the number of erase blocks per chip.
	BlocksPerChip int
	// PagesPerBlock is the number of physical pages per erase block.
	PagesPerBlock int
	// SubpagesPerPage is N_sub, the number of independually programmable
	// subpages per physical page (4 in the paper: 16 KB / 4 KB).
	SubpagesPerPage int
	// SubpageBytes is S_sub, the subpage size in bytes (4 KB in the paper).
	SubpageBytes int
}

// DefaultGeometry mirrors the paper's emulated SSD fabric — 8 channels of
// 4 TLC chips with 16-KB pages of four 4-KB subpages — at a reduced block
// count so experiments precondition quickly. The paper makes the same
// capacity reduction (512 GB platform limited to 16 GB) and argues FTL
// behaviour is workload- not capacity-determined.
var DefaultGeometry = Geometry{
	Channels:        8,
	ChipsPerChannel: 4,
	BlocksPerChip:   64,
	PagesPerBlock:   64,
	SubpagesPerPage: 4,
	SubpageBytes:    4096,
}

// Validate reports a descriptive error if any dimension is non-positive or
// the subpage count does not fit the addressing scheme.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("nand: geometry field %s = %d, must be positive", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"ChipsPerChannel", g.ChipsPerChannel},
		{"BlocksPerChip", g.BlocksPerChip},
		{"PagesPerBlock", g.PagesPerBlock},
		{"SubpagesPerPage", g.SubpagesPerPage},
		{"SubpageBytes", g.SubpageBytes},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if g.SubpagesPerPage > 255 {
		return fmt.Errorf("nand: SubpagesPerPage = %d exceeds 255", g.SubpagesPerPage)
	}
	// The device decodes addresses by reciprocal multiplication, exact
	// below 2³¹ (decode.go). Capping each factor keeps the product from
	// overflowing on the way.
	n := int64(1)
	for _, v := range []int{g.Channels, g.ChipsPerChannel, g.BlocksPerChip, g.PagesPerBlock, g.SubpagesPerPage} {
		if n *= int64(min(v, maxAddress)); n >= maxAddress {
			return fmt.Errorf("nand: geometry has 2^31 or more subpages (8 TiB at 4 KiB subpages)")
		}
	}
	return nil
}

// Chips returns the total chip count.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// TotalBlocks returns the device-wide block count.
func (g Geometry) TotalBlocks() int { return g.Chips() * g.BlocksPerChip }

// TotalPages returns the device-wide physical page count.
func (g Geometry) TotalPages() int64 {
	return int64(g.TotalBlocks()) * int64(g.PagesPerBlock)
}

// TotalSubpages returns the device-wide subpage count.
func (g Geometry) TotalSubpages() int64 {
	return g.TotalPages() * int64(g.SubpagesPerPage)
}

// PageBytes returns S_full, the physical page size in bytes.
func (g Geometry) PageBytes() int { return g.SubpagesPerPage * g.SubpageBytes }

// BlockBytes returns the erase-block size in bytes.
func (g Geometry) BlockBytes() int64 {
	return int64(g.PageBytes()) * int64(g.PagesPerBlock)
}

// CapacityBytes returns the raw device capacity in bytes.
func (g Geometry) CapacityBytes() int64 {
	return g.BlockBytes() * int64(g.TotalBlocks())
}

// SubpagesPerBlock returns the number of subpages per erase block.
func (g Geometry) SubpagesPerBlock() int {
	return g.PagesPerBlock * g.SubpagesPerPage
}

// String summarizes the geometry for logs and reports.
func (g Geometry) String() string {
	return fmt.Sprintf("%dch x %dchip x %dblk x %dpg, page %d B (%d x %d B), %.1f GiB raw",
		g.Channels, g.ChipsPerChannel, g.BlocksPerChip, g.PagesPerBlock,
		g.PageBytes(), g.SubpagesPerPage, g.SubpageBytes,
		float64(g.CapacityBytes())/(1<<30))
}

// BlockID identifies an erase block device-wide in [0, TotalBlocks).
// Blocks are striped across chips: consecutive BlockIDs land on
// consecutive chips, so FTLs that allocate blocks round-robin naturally
// spread load over every channel and chip.
type BlockID int32

// PageID identifies a physical page device-wide in [0, TotalPages).
type PageID int64

// SubpageID identifies a subpage device-wide in [0, TotalSubpages).
type SubpageID int64

// ChipOf returns the chip index in [0, Chips) that owns block b.
func (g Geometry) ChipOf(b BlockID) int { return int(b) % g.Chips() }

// ChannelOf returns the channel index in [0, Channels) that owns block b.
func (g Geometry) ChannelOf(b BlockID) int { return g.ChipOf(b) % g.Channels }

// LocalBlock returns the block index within its owning chip.
func (g Geometry) LocalBlock(b BlockID) int { return int(b) / g.Chips() }

// PageOf composes a PageID from a block and a page offset within it.
func (g Geometry) PageOf(b BlockID, page int) PageID {
	return PageID(int64(b)*int64(g.PagesPerBlock) + int64(page))
}

// BlockOfPage returns the block containing page p.
func (g Geometry) BlockOfPage(p PageID) BlockID {
	return BlockID(int64(p) / int64(g.PagesPerBlock))
}

// PageIndex returns the page offset of p within its block.
func (g Geometry) PageIndex(p PageID) int {
	return int(int64(p) % int64(g.PagesPerBlock))
}

// SubpageOf composes a SubpageID from a page and a subpage index.
func (g Geometry) SubpageOf(p PageID, sub int) SubpageID {
	return SubpageID(int64(p)*int64(g.SubpagesPerPage) + int64(sub))
}

// PageOfSubpage returns the page containing subpage s.
func (g Geometry) PageOfSubpage(s SubpageID) PageID {
	return PageID(int64(s) / int64(g.SubpagesPerPage))
}

// SubIndex returns the subpage offset of s within its page.
func (g Geometry) SubIndex(s SubpageID) int {
	return int(int64(s) % int64(g.SubpagesPerPage))
}

// ValidBlock reports whether b addresses a block in this geometry.
func (g Geometry) ValidBlock(b BlockID) bool {
	return b >= 0 && int(b) < g.TotalBlocks()
}

// ValidPage reports whether p addresses a page in this geometry.
func (g Geometry) ValidPage(p PageID) bool {
	return p >= 0 && int64(p) < g.TotalPages()
}

// ValidSubpage reports whether s addresses a subpage in this geometry.
func (g Geometry) ValidSubpage(s SubpageID) bool {
	return s >= 0 && int64(s) < g.TotalSubpages()
}
