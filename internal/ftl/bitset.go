package ftl

// Bitset holds one flag per index, 64 to a word: the per-sector flags the
// FTLs keep (small origin, updated since entering a region) cost a bit
// each rather than a byte.
type Bitset []uint64

// NewBitset returns n cleared flags.
func NewBitset(n int64) Bitset { return make(Bitset, (n+63)/64) }

// Get reports flag i.
func (s Bitset) Get(i int64) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// Set sets flag i to v.
func (s Bitset) Set(i int64, v bool) {
	if v {
		s[i>>6] |= 1 << (i & 63)
	} else {
		s[i>>6] &^= 1 << (i & 63)
	}
}
