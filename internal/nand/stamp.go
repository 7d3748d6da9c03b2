package nand

import (
	"encoding/binary"
	"fmt"

	"espftl/internal/sim"
)

// Stamp is the integrity fingerprint the simulator stores in place of a
// subpage's 4-KB payload. It is sufficient to detect every corruption an
// FTL bug can cause — lost updates, stale reads, mis-mapped relocations —
// without the memory cost of real data: a read that returns the wrong
// (LSN, Version) pair is exactly a read that would have returned wrong
// bytes.
type Stamp struct {
	// LSN is the logical sector number the payload belongs to, or
	// PaddingLSN for filler written to complete a partial page.
	LSN int64
	// Version is the host-side write counter of that LSN at program time.
	Version uint32
}

// PaddingLSN marks a subpage slot that carries no logical data (written as
// padding in a partial full-page program, or never assigned).
const PaddingLSN int64 = -1

// Padding is the stamp for a slot with no logical content.
var Padding = Stamp{LSN: PaddingLSN}

// IsPadding reports whether the stamp carries no logical data.
func (s Stamp) IsPadding() bool { return s.LSN == PaddingLSN }

// String formats the stamp for error messages.
func (s Stamp) String() string {
	if s.IsPadding() {
		return "pad"
	}
	return fmt.Sprintf("lsn=%d v%d", s.LSN, s.Version)
}

// OOB is the self-describing out-of-band record programmed next to every
// subpage payload. It carries everything a mount-time scan needs to rebuild
// the FTL's RAM state without reading any payload: the logical identity
// (Stamp), a device-global sequence number that totally orders program
// operations (duplicate-LPN resolution picks the highest), the ESP pass
// count N^k_pp at program time (restores retention bookkeeping), the
// program timestamp (restores retention clocks), and a region tag so the
// scan can dispatch a block to the right mapping table — a round-0 subpage
// pass is otherwise indistinguishable from a full-page program.
type OOB struct {
	Stamp Stamp
	// Seq is the device-global program-operation sequence number; all
	// subpages written by one program op share it. Zero means "unset"
	// (only seen on pre-OOB test paths).
	Seq uint64
	// Npp is the number of ESP passes the page had absorbed before this
	// subpage was programmed (N^k_pp in the paper).
	Npp NppType
	// ProgrammedAt is the virtual time of the program operation.
	ProgrammedAt sim.Time
	// Tag identifies the FTL region that owns the block (ftl.TagFull,
	// ftl.TagFine, ftl.TagSub); 0 for untagged programs.
	Tag uint8
}

// OOBSize is the encoded size of one subpage's OOB record: 32 bytes, well
// inside the 128-224 bytes of spare area a real 4-KB subpage provides.
const OOBSize = 32

const oobMagic = 0xE5

// EncodeOOB serializes the record into the fixed 32-byte on-flash layout:
//
//	[0]     magic (0xE5)
//	[1]     region tag
//	[2]     npp
//	[3]     checksum (xor of all other bytes)
//	[4:12]  LSN (little-endian two's complement)
//	[12:16] version
//	[16:24] sequence number
//	[24:32] program timestamp (ns, virtual)
func EncodeOOB(o OOB) [OOBSize]byte {
	var b [OOBSize]byte
	b[0] = oobMagic
	b[1] = o.Tag
	b[2] = byte(o.Npp)
	binary.LittleEndian.PutUint64(b[4:12], uint64(o.Stamp.LSN))
	binary.LittleEndian.PutUint32(b[12:16], o.Stamp.Version)
	binary.LittleEndian.PutUint64(b[16:24], o.Seq)
	binary.LittleEndian.PutUint64(b[24:32], uint64(o.ProgrammedAt))
	b[3] = oobChecksum(&b)
	return b
}

// oobChecksum xors every byte except the checksum slot itself.
func oobChecksum(b *[OOBSize]byte) byte {
	var x byte
	for i, v := range b {
		if i == 3 {
			continue
		}
		x ^= v
	}
	return x
}

// DecodeOOB parses an encoded record, rejecting truncated input, a bad
// magic byte, or a checksum mismatch (a garbled spare area must never be
// adopted into the mapping tables).
func DecodeOOB(raw []byte) (OOB, error) {
	if len(raw) < OOBSize {
		return OOB{}, fmt.Errorf("nand: oob record truncated: %d < %d bytes: %w", len(raw), OOBSize, ErrBadOOB)
	}
	var b [OOBSize]byte
	copy(b[:], raw[:OOBSize])
	if b[0] != oobMagic {
		return OOB{}, fmt.Errorf("nand: oob magic %#02x: %w", b[0], ErrBadOOB)
	}
	if got, want := b[3], oobChecksum(&b); got != want {
		return OOB{}, fmt.Errorf("nand: oob checksum %#02x != %#02x: %w", got, want, ErrBadOOB)
	}
	return OOB{
		Stamp: Stamp{
			LSN:     int64(binary.LittleEndian.Uint64(b[4:12])),
			Version: binary.LittleEndian.Uint32(b[12:16]),
		},
		Seq:          binary.LittleEndian.Uint64(b[16:24]),
		Npp:          NppType(b[2]),
		ProgrammedAt: sim.Time(binary.LittleEndian.Uint64(b[24:32])),
		Tag:          b[1],
	}, nil
}
