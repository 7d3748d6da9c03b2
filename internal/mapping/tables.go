// Package mapping provides the logical-to-physical translation structures
// used by the FTLs: a dense table (the CGM scheme's page map and the FGM
// scheme's sector map), and the compact open-addressing hash table subFTL
// uses for its subpage region.
//
// Every structure reports its memory footprint, because the mapping-memory
// comparison between the FGM scheme and subFTL's hybrid scheme is one of
// the paper's claims (§1, §4.2).
package mapping

// None marks an unmapped translation entry.
const None int64 = -1

// Table is a dense logical → physical table: logical pages to physical
// pages in the CGM scheme, logical sectors to physical subpages in the FGM
// scheme. Entries are 64-bit physical addresses; unmapped entries hold
// None.
type Table struct {
	entries []int64
	mapped  int
}

// NewTable returns a table for n logical units, all unmapped.
func NewTable(n int64) *Table {
	t := &Table{entries: make([]int64, n)}
	for i := range t.entries {
		t.entries[i] = None
	}
	return t
}

// Size returns the number of logical units the table covers.
func (t *Table) Size() int64 { return int64(len(t.entries)) }

// Mapped returns the number of currently mapped logical units.
func (t *Table) Mapped() int { return t.mapped }

// Lookup returns the physical address for l, or None.
func (t *Table) Lookup(l int64) int64 { return t.entries[l] }

// Update maps l to p and returns the previous mapping (None if new).
func (t *Table) Update(l, p int64) int64 {
	old := t.entries[l]
	if old == None && p != None {
		t.mapped++
	}
	if old != None && p == None {
		t.mapped--
	}
	t.entries[l] = p
	return old
}

// Invalidate unmaps l and returns the previous mapping.
func (t *Table) Invalidate(l int64) int64 { return t.Update(l, None) }

// MemoryBytes reports the table's translation-state footprint.
func (t *Table) MemoryBytes() int64 { return int64(len(t.entries)) * 8 }
