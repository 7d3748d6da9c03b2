package ftl

import (
	"espftl/internal/nand"
)

// ScannedBlock is the mount-time view of one non-empty erase block: the
// decoded OOB of every subpage slot, plus the aggregates the recovery
// passes dispatch on. The scan is the only device access a mount performs;
// everything an FTL rebuilds comes from these records.
type ScannedBlock struct {
	Block nand.BlockID
	// Pages holds one slot slice per physical page, index-aligned with
	// the geometry.
	Pages [][]nand.SubpageOOB
	// Programmed counts slots in any post-erase state (valid, garbage or
	// torn); a block with zero is not reported at all.
	Programmed int
	// Valid counts slots with a decodable OOB record.
	Valid int
	// Torn counts slots whose program was cut by power loss.
	Torn int
	// Tag is the region tag of the block's first valid slot (zero when the
	// block holds no valid records), identifying the owning region —
	// blocks are never shared between regions.
	Tag uint8
	// MaxSeq is the highest program sequence number on the block.
	MaxSeq uint64
}

// scanBlocks performs the single mount-time OOB scan: every page of every
// non-factory-bad block is sensed once via ScanPageOOB, and blocks holding
// at least one programmed slot are returned with their decoded records.
// pages reports how many page senses were issued (the denominator of the
// "single scan, no data reads" acceptance check).
func scanBlocks(dev *nand.Device) (blocks []ScannedBlock, pages int64, err error) {
	g := dev.Geometry()
	for b := nand.BlockID(0); int(b) < g.TotalBlocks(); b++ {
		if dev.FactoryBad(b) {
			continue
		}
		sb := ScannedBlock{Block: b, Pages: make([][]nand.SubpageOOB, g.PagesPerBlock)}
		// ScanPageOOB returns device-owned scratch overwritten by the next
		// sense; the scan retains every page, so copy each result into one
		// flat per-block backing array.
		backing := make([]nand.SubpageOOB, g.PagesPerBlock*g.SubpagesPerPage)
		for pi := 0; pi < g.PagesPerBlock; pi++ {
			slots, err := dev.ScanPageOOB(g.PageOf(b, pi))
			if err != nil {
				return nil, pages, err
			}
			pages++
			dst := backing[pi*g.SubpagesPerPage : (pi+1)*g.SubpagesPerPage]
			copy(dst, slots)
			sb.Pages[pi] = dst
			for _, sl := range slots {
				switch sl.State {
				case nand.OOBErased:
				case nand.OOBValid:
					if sb.Valid == 0 {
						sb.Tag = sl.OOB.Tag
					}
					sb.Programmed++
					sb.Valid++
					if sl.OOB.Seq > sb.MaxSeq {
						sb.MaxSeq = sl.OOB.Seq
					}
				case nand.OOBTorn:
					sb.Programmed++
					sb.Torn++
				default: // OOBGarbage
					sb.Programmed++
				}
			}
		}
		if sb.Programmed > 0 {
			blocks = append(blocks, sb)
		}
	}
	return blocks, pages, nil
}
