package buffer

import (
	"reflect"
	"testing"
	"testing/quick"
)

// writeBack mimics the FGM owner's write-back: while at least threshold
// sectors are staged, take the oldest page's worth, "land" it, then pop it.
func writeBack(b *Buffer, threshold, pageSecs int) [][]int64 {
	var out [][]int64
	for b.Len() >= threshold {
		grp := b.Oldest(pageSecs)
		out = append(out, append([]int64(nil), grp...))
		b.Pop(len(grp))
	}
	return out
}

func TestAsyncMergesToFullGroups(t *testing.T) {
	b := New()
	b.Stage([]int64{1})
	b.Stage([]int64{2, 3})
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	b.Stage([]int64{4})
	got := writeBack(b, 4, 4)
	if !reflect.DeepEqual(got, [][]int64{{1, 2, 3, 4}}) {
		t.Fatalf("full write-back = %v", got)
	}
	if b.Len() != 0 {
		t.Fatalf("buffer not empty after full write-back: %d", b.Len())
	}
}

// A group stays staged, and readable, until its owner pops it: reading
// the oldest group does not remove it, so a failed write-back loses
// nothing.
func TestStagedUntilPopped(t *testing.T) {
	b := New()
	b.Stage([]int64{1, 2, 3, 4, 5})
	for i := 0; i < 2; i++ {
		if got := b.Oldest(4); !reflect.DeepEqual(got, []int64{1, 2, 3, 4}) {
			t.Fatalf("Oldest = %v", got)
		}
	}
	if b.Len() != 5 || !b.Contains(1) || !b.Contains(4) {
		t.Fatalf("Oldest removed sectors: len=%d", b.Len())
	}
	b.Pop(4)
	if b.Len() != 1 || b.Contains(1) || !b.Contains(5) {
		t.Fatalf("after Pop: len=%d", b.Len())
	}
	if got := b.Oldest(4); !reflect.DeepEqual(got, []int64{5}) {
		t.Fatalf("partial Oldest = %v", got)
	}
}

func TestDuplicateAsyncAbsorbed(t *testing.T) {
	b := New()
	b.Stage([]int64{5})
	b.Stage([]int64{5})
	b.Stage([]int64{5})
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (duplicates absorbed)", b.Len())
	}
	if b.Absorbed() != 2 {
		t.Fatalf("Absorbed = %d, want 2", b.Absorbed())
	}
}

func TestLargeAsyncWriteMultipleGroups(t *testing.T) {
	b := New()
	b.Stage([]int64{0, 1, 2, 3, 4, 5, 6, 7, 8})
	got := writeBack(b, 4, 4)
	if !reflect.DeepEqual(got, [][]int64{{0, 1, 2, 3}, {4, 5, 6, 7}}) {
		t.Fatalf("groups = %v", got)
	}
	if b.Len() != 1 || !b.Contains(8) {
		t.Fatal("tail sector not retained")
	}
}

func TestTrimRemovesResidents(t *testing.T) {
	b := New()
	b.Stage([]int64{1, 2, 3})
	b.Trim([]int64{2, 99})
	if b.Contains(2) {
		t.Fatal("trimmed sector still resident")
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if got := b.Oldest(4); !reflect.DeepEqual(got, []int64{1, 3}) {
		t.Fatalf("FIFO after trim = %v", got)
	}
}

func TestDrain(t *testing.T) {
	b := New()
	if got := writeBack(b, 1, 4); got != nil {
		t.Fatalf("empty drain = %v", got)
	}
	b.Stage([]int64{1, 2, 3, 4, 5, 6})
	writeBack(b, 4, 4) // lands {1..4}, retains {5,6}
	got := writeBack(b, 1, 4)
	if !reflect.DeepEqual(got, [][]int64{{5, 6}}) {
		t.Fatalf("drain = %v", got)
	}
	if b.Len() != 0 {
		t.Fatal("buffer not empty after drain")
	}
}

// Property: no sector is ever lost or duplicated — every staged LSN is,
// at any point, either exactly once in the buffer or has been written
// back, never more often than it was staged; and a final drain leaves the
// buffer empty with every resident written back once. A sync write is the
// owner's Trim followed by its own flush.
func TestBufferConservationProperty(t *testing.T) {
	f := func(ops []struct {
		LSN  uint8
		Sync bool
	}) bool {
		b := New()
		flushed := make(map[int64]int)
		record := func(gs [][]int64) {
			for _, g := range gs {
				for _, lsn := range g {
					flushed[lsn]++
				}
			}
		}
		written := make(map[int64]int)
		for _, op := range ops {
			lsn := int64(op.LSN % 32)
			written[lsn]++
			if op.Sync {
				b.Trim([]int64{lsn})
				record([][]int64{{lsn}})
			} else {
				b.Stage([]int64{lsn})
				record(writeBack(b, 4, 4))
			}
		}
		record(writeBack(b, 1, 4))
		if b.Len() != 0 {
			return false
		}
		for lsn, w := range written {
			fl := flushed[lsn]
			// Every write either reached flash or was absorbed by a newer
			// buffered version; at least one copy must have flushed, and
			// never more copies than writes.
			if fl < 1 || fl > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
