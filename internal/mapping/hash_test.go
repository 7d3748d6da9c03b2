package mapping

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestHashTableBasics(t *testing.T) {
	h := NewHashTable(100)
	if h.Len() != 0 {
		t.Fatalf("fresh Len = %d", h.Len())
	}
	if _, ok := h.Get(42); ok {
		t.Fatal("Get on empty table found something")
	}
	if err := h.Put(42, 1000); err != nil {
		t.Fatal(err)
	}
	v, ok := h.Get(42)
	if !ok || v != 1000 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if err := h.Put(42, 2000); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.Get(42); v != 2000 {
		t.Fatalf("overwrite Get = %d", v)
	}
	if h.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", h.Len())
	}
	old, ok := h.Delete(42)
	if !ok || old != 2000 {
		t.Fatalf("Delete = %d,%v", old, ok)
	}
	if h.Len() != 0 {
		t.Fatalf("Len after delete = %d", h.Len())
	}
	if _, ok := h.Delete(42); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestHashTableCapacityPow2(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		h := NewHashTable(n)
		c := len(h.keys)
		if c&(c-1) != 0 {
			t.Fatalf("capacity(%d) = %d not a power of two", n, c)
		}
		if c < n {
			t.Fatalf("capacity(%d) = %d below requested", n, c)
		}
	}
}

func TestHashTableFull(t *testing.T) {
	h := NewHashTable(4) // capacity 8
	var err error
	inserted := 0
	for k := int64(0); k < 100; k++ {
		if err = h.Put(k, k); err != nil {
			break
		}
		inserted++
	}
	if !errors.Is(err, ErrHashFull) {
		t.Fatalf("table never filled: err=%v", err)
	}
	if inserted != len(h.keys)-1 {
		t.Fatalf("inserted %d, want %d (one slot kept empty)", inserted, len(h.keys)-1)
	}
	// All inserted keys still readable at full occupancy.
	for k := int64(0); k < int64(inserted); k++ {
		if v, ok := h.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v at full occupancy", k, v, ok)
		}
	}
	// Deleting frees a slot for reuse (via tombstone).
	h.Delete(0)
	if err := h.Put(500, 500); err != nil {
		t.Fatalf("Put after delete: %v", err)
	}
}

func TestHashTableTombstoneReuse(t *testing.T) {
	h := NewHashTable(16)
	for k := int64(0); k < 10; k++ {
		if err := h.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 10; k++ {
		h.Delete(k)
	}
	// Churn far more keys than capacity through the table; tombstone reuse
	// must keep this working indefinitely.
	for k := int64(100); k < 1000; k++ {
		if err := h.Put(k, k); err != nil {
			t.Fatalf("Put(%d): %v (tombstones not reused)", k, err)
		}
		if v, ok := h.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) after churn = %d,%v", k, v, ok)
		}
		h.Delete(k)
	}
	if h.Len() != 0 {
		t.Fatalf("Len after churn = %d", h.Len())
	}
}

func TestHashTableRange(t *testing.T) {
	h := NewHashTable(32)
	want := map[int64]int64{1: 10, 2: 20, 3: 30}
	for k, v := range want {
		if err := h.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[int64]int64)
	h.Range(func(k, v int64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	count := 0
	h.Range(func(k, v int64) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-stop Range visited %d", count)
	}
}

func TestHashTableMemoryBytes(t *testing.T) {
	h := NewHashTable(100)
	if got := h.MemoryBytes(); got != int64(len(h.keys))*17 {
		t.Fatalf("MemoryBytes = %d, want %d", got, len(h.keys)*17)
	}
}

// Property: the hash table behaves exactly like a map[int64]int64 under
// random puts, deletes and gets, including with adversarially clustered
// keys (small key space forces collisions).
func TestHashTableModelProperty(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val uint16
		Del bool
	}) bool {
		h := NewHashTable(64)
		model := make(map[int64]int64)
		for _, op := range ops {
			k := int64(op.Key % 64)
			if op.Del {
				gotV, gotOK := h.Delete(k)
				wantV, wantOK := model[k]
				if gotOK != wantOK || (gotOK && gotV != wantV) {
					return false
				}
				delete(model, k)
			} else {
				if err := h.Put(k, int64(op.Val)); err != nil {
					return false // 64 distinct keys can never fill cap>=80
				}
				model[k] = int64(op.Val)
			}
		}
		if h.Len() != len(model) {
			return false
		}
		for k := int64(0); k < 64; k++ {
			gotV, gotOK := h.Get(k)
			wantV, wantOK := model[k]
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHashTableCompaction locks in the tombstone bound: sustained
// delete/insert churn at high occupancy must keep tombstones at or below
// half the live headroom (Put compacts past that point), and probe chains
// must stay short instead of degrading toward full-table scans.
func TestHashTableCompaction(t *testing.T) {
	const n = 1000
	h := NewHashTable(n)
	rng := uint64(7)
	fresh := func() int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int64(rng >> 20)
	}
	// Scattered keys collide, so a Put can reuse a tombstone on its chain
	// and the table outlives its empty slots long enough for the chain
	// check below to see poisoning (sequential keys hash collision-free).
	live := make([]int64, n)
	for i := range live {
		live[i] = fresh()
		if err := h.Put(live[i], live[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: delete one key, insert a fresh one, many times over — the
	// live count never moves but every cycle mints a tombstone.
	for cycle := 0; cycle < 20000; cycle++ {
		victim := &live[cycle%n]
		if _, ok := h.Delete(*victim); !ok {
			t.Fatalf("cycle %d: victim %d missing", cycle, *victim)
		}
		*victim = fresh()
		if err := h.Put(*victim, *victim); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if tombs, headroom := h.used-h.live, len(h.keys)-h.live; tombs > headroom/2+1 {
			t.Fatalf("cycle %d: %d tombstones exceed half the headroom (%d/2)", cycle, tombs, headroom)
		}
		// Linear probing at the 3/4 occupancy compaction permits takes
		// about 8 probes per miss; without compaction this churn drives
		// it past 18 by cycle 2000 and to half the table by cycle 6000.
		if cycle%100 == 0 {
			if m := meanMissProbes(h); m > 12 {
				t.Fatalf("cycle %d: a miss probes %.1f slots on average, want <= 12 (tombstone poisoning)", cycle, m)
			}
		}
	}
	if h.Len() != n {
		t.Fatalf("live entries: got %d, want %d", h.Len(), n)
	}
	// All current keys must still resolve after the compactions.
	for _, k := range live {
		if v, ok := h.Get(k); !ok || v != k {
			t.Fatalf("key %d: got %d %v", k, v, ok)
		}
	}
}

// meanMissProbes is the mean number of slots a Get of an absent key
// probes, over every home slot: the run of occupied slots and tombstones
// up to and including the next empty one.
func meanMissProbes(h *HashTable) float64 {
	mask := len(h.state) - 1
	sum := 0
	for home := range h.state {
		for i := home; h.state[i] != slotEmpty; i = (i + 1) & mask {
			sum++
		}
		sum++
	}
	return float64(sum) / float64(len(h.state))
}

// TestHashTableCompactionPreservesEntries drives churn across the exact
// compaction trigger and checks a model map agrees with the table.
func TestHashTableCompactionPreservesEntries(t *testing.T) {
	h := NewHashTable(64)
	model := map[int64]int64{}
	rng := uint64(1)
	for i := 0; i < 50000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := int64(rng>>33) % 96
		switch {
		case rng%3 == 0:
			delete(model, key)
			h.Delete(key)
		default:
			if len(model) >= 64 {
				break
			}
			model[key] = int64(i)
			if err := h.Put(key, int64(i)); err != nil {
				t.Fatalf("op %d: %v (live=%d)", i, err, h.Len())
			}
		}
	}
	if h.Len() != len(model) {
		t.Fatalf("live count: table %d, model %d", h.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := h.Get(k); !ok || got != v {
			t.Fatalf("key %d: table %d %v, model %d", k, got, ok, v)
		}
	}
}

// TestHashTableSteadyStateAllocs guards the subpage-mapping hot path: on
// a populated table, overwrite, lookup, delete and re-insert (the
// tombstone-reuse path subFTL's region churn takes) must not touch the
// heap. Only compact may allocate, and this cycle never accumulates the
// tombstones that trigger it.
func TestHashTableSteadyStateAllocs(t *testing.T) {
	const keys = 1 << 12
	h := NewHashTable(2 * keys)
	for k := int64(0); k < keys; k++ {
		if err := h.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	k := int64(0)
	avg := testing.AllocsPerRun(1000, func() {
		if err := h.Put(k, k+1); err != nil {
			t.Fatal(err)
		}
		if v, ok := h.Get(k); !ok || v != k+1 {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
		if _, ok := h.Delete(k); !ok {
			t.Fatalf("Delete(%d) missed", k)
		}
		if err := h.Put(k, k); err != nil {
			t.Fatal(err)
		}
		k = (k + 7) % keys
	})
	if avg != 0 {
		t.Errorf("Put/Get/Delete allocate %.1f objects per cycle, want 0", avg)
	}
}
