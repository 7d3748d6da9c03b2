package mapping

import "fmt"

// HashTable is the fixed-capacity open-addressing hash table subFTL uses
// for the subpage region's fine-grained mapping (paper §4.2). The paper's
// observation is that the table can be small: ESP bounds the live entries
// by the region's subpage slots (one per slot, and in the paper's
// single-subpage-pass model one per *page*), a small fraction of the
// device, so fine-grained mapping memory stays far below a full FGM table.
//
// The implementation is linear probing with tombstone deletion and an
// occupancy cap; Put fails with ErrHashFull when the table is genuinely
// full. subFTL does not recover from that: it surfaces as a failed write
// after the subpage is already programmed, and it cannot happen today only
// because subFTL sizes the table for every subpage of its region quota
// (ROADMAP item 16 makes fullness a checked bound).
type HashTable struct {
	keys  []int64
	vals  []int64
	state []uint8 // 0 empty, 1 occupied, 2 tombstone
	live  int
	used  int // occupied + tombstones
}

const (
	slotEmpty uint8 = iota
	slotFull
	slotTomb
)

// ErrHashFull is returned by Put when no free slot remains.
var ErrHashFull = fmt.Errorf("mapping: hash table full")

// NewHashTable returns a table with capacity for at least n live entries.
// Capacity is rounded up to a power of two with 25 % headroom so probe
// chains stay short at full occupancy.
func NewHashTable(n int) *HashTable {
	want := n + n/4 + 1
	capacity := 8
	for capacity < want {
		capacity <<= 1
	}
	return &HashTable{
		keys:  make([]int64, capacity),
		vals:  make([]int64, capacity),
		state: make([]uint8, capacity),
	}
}

// Len returns the number of live entries.
func (h *HashTable) Len() int { return h.live }

// MemoryBytes reports the table's footprint: 8-byte key, 8-byte value and
// a state byte per slot.
func (h *HashTable) MemoryBytes() int64 { return int64(len(h.keys)) * 17 }

func (h *HashTable) slot(key int64) uint64 {
	// Fibonacci hashing on the key; capacity is a power of two.
	x := uint64(key) * 0x9e3779b97f4a7c15
	return x & uint64(len(h.keys)-1)
}

// Get returns the value mapped to key and whether it exists.
func (h *HashTable) Get(key int64) (int64, bool) {
	mask := uint64(len(h.keys) - 1)
	i := h.slot(key)
	for n := 0; n < len(h.keys); n++ {
		switch h.state[i] {
		case slotEmpty:
			return 0, false
		case slotFull:
			if h.keys[i] == key {
				return h.vals[i], true
			}
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// compact rehashes all live entries in place, discarding tombstones, so
// long delete/insert churn cannot poison the probe chains.
func (h *HashTable) compact() {
	keys, vals, state := h.keys, h.vals, h.state
	h.keys = make([]int64, len(keys))
	h.vals = make([]int64, len(vals))
	h.state = make([]uint8, len(state))
	h.live, h.used = 0, 0
	for i, s := range state {
		if s == slotFull {
			h.reinsert(keys[i], vals[i])
		}
	}
}

// reinsert places a key known to be absent into the tombstone-free table
// compact is rebuilding. It skips Put's key comparison, tombstone tracking
// and compaction trigger, none of which can apply here, and cannot fail:
// live entries always fit (capacity was sized for them plus headroom).
func (h *HashTable) reinsert(key, val int64) {
	mask := uint64(len(h.keys) - 1)
	i := h.slot(key)
	for h.state[i] == slotFull {
		i = (i + 1) & mask
	}
	h.state[i] = slotFull
	h.keys[i] = key
	h.vals[i] = val
	h.live++
	h.used++
}

// Put maps key to val, replacing any existing mapping. It returns
// ErrHashFull when the table has no usable slot left.
func (h *HashTable) Put(key, val int64) error {
	// Compact once tombstones eat more than half the headroom left over
	// live entries: long-lived delete/insert churn (the subFTL's region at
	// steady state) would otherwise degrade every miss toward a full-table
	// probe even though the live load factor is modest.
	if tombs := h.used - h.live; tombs > (len(h.keys)-h.live)/2 {
		h.compact()
	}
	mask := uint64(len(h.keys) - 1)
	i := h.slot(key)
	firstTomb := -1
	for n := 0; n < len(h.keys); n++ {
		switch h.state[i] {
		case slotEmpty:
			if firstTomb >= 0 {
				i = uint64(firstTomb)
			} else if h.used >= len(h.keys)-1 {
				// Keep one slot empty so probes terminate.
				return ErrHashFull
			} else {
				h.used++
			}
			h.state[i] = slotFull
			h.keys[i] = key
			h.vals[i] = val
			h.live++
			return nil
		case slotFull:
			if h.keys[i] == key {
				h.vals[i] = val
				return nil
			}
		case slotTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		}
		i = (i + 1) & mask
	}
	if firstTomb >= 0 {
		h.state[firstTomb] = slotFull
		h.keys[firstTomb] = key
		h.vals[firstTomb] = val
		h.live++
		return nil
	}
	return ErrHashFull
}

// Delete removes key's mapping, returning the old value and whether it
// existed.
func (h *HashTable) Delete(key int64) (int64, bool) {
	mask := uint64(len(h.keys) - 1)
	i := h.slot(key)
	for n := 0; n < len(h.keys); n++ {
		switch h.state[i] {
		case slotEmpty:
			return 0, false
		case slotFull:
			if h.keys[i] == key {
				h.state[i] = slotTomb
				h.live--
				return h.vals[i], true
			}
		}
		i = (i + 1) & mask
	}
	return 0, false
}

// Range calls fn for every live entry until fn returns false. Iteration
// order is unspecified. The table must not be mutated during Range.
func (h *HashTable) Range(fn func(key, val int64) bool) {
	for i, s := range h.state {
		if s == slotFull {
			if !fn(h.keys[i], h.vals[i]) {
				return
			}
		}
	}
}
