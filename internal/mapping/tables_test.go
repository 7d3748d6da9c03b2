package mapping

import (
	"testing"
	"testing/quick"
)

func TestTableBasics(t *testing.T) {
	tbl := NewTable(16)
	if tbl.Size() != 16 || tbl.Mapped() != 0 {
		t.Fatalf("fresh table size=%d mapped=%d", tbl.Size(), tbl.Mapped())
	}
	for lpn := int64(0); lpn < 16; lpn++ {
		if got := tbl.Lookup(lpn); got != None {
			t.Fatalf("fresh Lookup(%d) = %d, want None", lpn, got)
		}
	}
	if old := tbl.Update(3, 77); old != None {
		t.Fatalf("Update returned %d, want None", old)
	}
	if got := tbl.Lookup(3); got != 77 {
		t.Fatalf("Lookup = %d, want 77", got)
	}
	if tbl.Mapped() != 1 {
		t.Fatalf("Mapped = %d, want 1", tbl.Mapped())
	}
	if old := tbl.Update(3, 99); old != 77 {
		t.Fatalf("remap returned %d, want 77", old)
	}
	if tbl.Mapped() != 1 {
		t.Fatalf("Mapped after remap = %d, want 1", tbl.Mapped())
	}
	if old := tbl.Invalidate(3); old != 99 {
		t.Fatalf("Invalidate returned %d, want 99", old)
	}
	if tbl.Mapped() != 0 || tbl.Lookup(3) != None {
		t.Fatal("invalidate did not unmap")
	}
	// Double invalidate is harmless.
	tbl.Invalidate(3)
	if tbl.Mapped() != 0 {
		t.Fatalf("Mapped after double invalidate = %d", tbl.Mapped())
	}
}

// One table serves both schemes: 8 B per entry whether an entry maps a
// logical page (CGM) or a logical sector (FGM).
func TestTableMemory(t *testing.T) {
	if got := NewTable(1024).MemoryBytes(); got != 8192 {
		t.Fatalf("MemoryBytes = %d, want 8192", got)
	}
	if got := NewTable(8).MemoryBytes(); got != 64 {
		t.Fatalf("MemoryBytes = %d, want 64", got)
	}
}

// Property: a table behaves exactly like a map[int64]int64 under a
// random workload of updates, invalidates and lookups.
func TestTableModelProperty(t *testing.T) {
	const n = 64
	f := func(ops []struct {
		LSN uint8
		SPN uint16
		Del bool
	}) bool {
		tbl := NewTable(n)
		model := make(map[int64]int64)
		for _, op := range ops {
			lsn := int64(op.LSN) % n
			if op.Del {
				tbl.Invalidate(lsn)
				delete(model, lsn)
			} else {
				tbl.Update(lsn, int64(op.SPN))
				model[lsn] = int64(op.SPN)
			}
		}
		if tbl.Mapped() != len(model) {
			return false
		}
		for lsn := int64(0); lsn < n; lsn++ {
			want, ok := model[lsn]
			got := tbl.Lookup(lsn)
			if ok && got != want {
				return false
			}
			if !ok && got != None {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
