package nand

import (
	"strings"
	"testing"
	"testing/quick"
)

func tinyGeometry() Geometry {
	return Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		BlocksPerChip:   4,
		PagesPerBlock:   8,
		SubpagesPerPage: 4,
		SubpageBytes:    4096,
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := tinyGeometry()
	bad.Channels = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Channels") {
		t.Fatalf("zero channels accepted: %v", err)
	}
	bad = tinyGeometry()
	bad.SubpagesPerPage = 300
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized SubpagesPerPage accepted")
	}
	// Addresses must stay below 2^31 subpages: 2 channels × 2 chips × 8
	// pages × 4 subpages = 2^7 per block-per-chip, so 2^24 blocks per chip
	// is exactly the limit and one fewer fits; a field that would overflow
	// the product is refused too.
	big := tinyGeometry()
	big.BlocksPerChip = 1<<24 - 1
	if err := big.Validate(); err != nil {
		t.Fatalf("geometry just under 2^31 subpages refused: %v", err)
	}
	for _, blocks := range []int{1 << 24, 1 << 62} {
		big.BlocksPerChip = blocks
		if err := big.Validate(); err == nil || !strings.Contains(err.Error(), "2^31") {
			t.Fatalf("%d blocks per chip accepted: %v", blocks, err)
		}
	}
}

func TestGeometryDerivedCounts(t *testing.T) {
	g := tinyGeometry()
	if got := g.Chips(); got != 4 {
		t.Errorf("Chips = %d, want 4", got)
	}
	if got := g.TotalBlocks(); got != 16 {
		t.Errorf("TotalBlocks = %d, want 16", got)
	}
	if got := g.TotalPages(); got != 128 {
		t.Errorf("TotalPages = %d, want 128", got)
	}
	if got := g.TotalSubpages(); got != 512 {
		t.Errorf("TotalSubpages = %d, want 512", got)
	}
	if got := g.PageBytes(); got != 16384 {
		t.Errorf("PageBytes = %d, want 16384", got)
	}
	if got := g.BlockBytes(); got != 16384*8 {
		t.Errorf("BlockBytes = %d, want %d", got, 16384*8)
	}
	if got := g.CapacityBytes(); got != 16384*8*16 {
		t.Errorf("CapacityBytes = %d, want %d", got, 16384*8*16)
	}
	if got := g.SubpagesPerBlock(); got != 32 {
		t.Errorf("SubpagesPerBlock = %d, want 32", got)
	}
}

func TestGeometryChipStriping(t *testing.T) {
	g := tinyGeometry()
	// Consecutive blocks land on consecutive chips.
	seen := make(map[int]int)
	for b := BlockID(0); int(b) < g.TotalBlocks(); b++ {
		chip := g.ChipOf(b)
		if chip < 0 || chip >= g.Chips() {
			t.Fatalf("ChipOf(%d) = %d out of range", b, chip)
		}
		seen[chip]++
		if lc := g.LocalBlock(b); lc < 0 || lc >= g.BlocksPerChip {
			t.Fatalf("LocalBlock(%d) = %d out of range", b, lc)
		}
		if ch := g.ChannelOf(b); ch != chip%g.Channels {
			t.Fatalf("ChannelOf(%d) = %d, want %d", b, ch, chip%g.Channels)
		}
	}
	for chip, n := range seen {
		if n != g.BlocksPerChip {
			t.Fatalf("chip %d owns %d blocks, want %d", chip, n, g.BlocksPerChip)
		}
	}
}

func TestGeometryAddressRoundTrip(t *testing.T) {
	g := tinyGeometry()
	f := func(blockRaw uint8, pageRaw, subRaw uint8) bool {
		b := BlockID(int(blockRaw) % g.TotalBlocks())
		pi := int(pageRaw) % g.PagesPerBlock
		sub := int(subRaw) % g.SubpagesPerPage
		p := g.PageOf(b, pi)
		if g.BlockOfPage(p) != b || g.PageIndex(p) != pi {
			return false
		}
		s := g.SubpageOf(p, sub)
		return g.PageOfSubpage(s) == p && g.SubIndex(s) == sub &&
			g.ValidBlock(b) && g.ValidPage(p) && g.ValidSubpage(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryValidBounds(t *testing.T) {
	g := tinyGeometry()
	if g.ValidBlock(-1) || g.ValidBlock(BlockID(g.TotalBlocks())) {
		t.Error("out-of-range block accepted")
	}
	if g.ValidPage(-1) || g.ValidPage(PageID(g.TotalPages())) {
		t.Error("out-of-range page accepted")
	}
	if g.ValidSubpage(-1) || g.ValidSubpage(SubpageID(g.TotalSubpages())) {
		t.Error("out-of-range subpage accepted")
	}
}

func TestGeometryString(t *testing.T) {
	s := DefaultGeometry.String()
	for _, want := range []string{"8ch", "4chip", "16384 B"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
