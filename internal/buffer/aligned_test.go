package buffer

import (
	"reflect"
	"testing"
	"testing/quick"
)

// stageAll mimics subFTL's write path: stage up to each completing sector,
// "land" the completed page and drop it, then stage the rest. It returns
// the completed pages in order.
func stageAll(b *Aligned, lsns []int64) []int64 {
	var full []int64
	for len(lsns) > 0 {
		n, done := b.Stage(lsns)
		if done {
			lpn := lsns[n-1] / int64(b.pageSecs)
			full = append(full, lpn)
			b.Drop(lpn)
		}
		lsns = lsns[n:]
	}
	return full
}

// writeBackAligned mimics subFTL's write-back: while over capacity, or
// until empty when all is set, land the oldest page's group and drop it.
func writeBackAligned(b *Aligned, all bool) [][]int64 {
	var out [][]int64
	for b.Over() || all && b.Len() > 0 {
		lpn, lsns, ok := b.Oldest()
		if !ok {
			panic("staged sectors but no oldest group")
		}
		out = append(out, append([]int64(nil), lsns...))
		b.Drop(lpn)
	}
	return out
}

func TestAlignedCompletesPage(t *testing.T) {
	b := NewAligned(4, 64)
	if n, full := b.Stage([]int64{8, 9, 10}); n != 3 || full {
		t.Fatalf("partial stage = %d, %v", n, full)
	}
	if b.Len() != 3 || !b.Contains(9) || b.Contains(11) {
		t.Fatalf("staging state wrong: len=%d", b.Len())
	}
	// The completing sector stops the stage; the page stays staged until
	// its owner drops it, and the rest of the write is not yet staged.
	n, full := b.Stage([]int64{11, 12})
	if n != 1 || !full {
		t.Fatalf("completion = %d, %v, want 1, true", n, full)
	}
	if b.Len() != 4 || !b.Contains(8) || b.Contains(12) {
		t.Fatalf("completed page: len=%d", b.Len())
	}
	b.Drop(2)
	if b.Len() != 0 || b.Contains(8) {
		t.Fatalf("post-drop: len=%d", b.Len())
	}
}

func TestAlignedScatteredNeverMerges(t *testing.T) {
	b := NewAligned(4, 64)
	// Sectors from different pages, none completing.
	if full := stageAll(b, []int64{0, 5, 10, 15, 20, 25}); full != nil {
		t.Fatalf("scattered sectors merged: %v", full)
	}
	if b.Len() != 6 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestAlignedDuplicateAbsorbed(t *testing.T) {
	b := NewAligned(4, 64)
	b.Stage([]int64{7})
	b.Stage([]int64{7})
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
}

func TestAlignedCapacityEviction(t *testing.T) {
	b := NewAligned(4, 8)
	// Nine scattered sectors: the oldest page's group must be written back.
	var full []int64
	var ev [][]int64
	for i := int64(0); i < 9; i++ {
		full = append(full, stageAll(b, []int64{i * 4})...) // each in its own page
		ev = append(ev, writeBackAligned(b, false)...)
	}
	if full != nil {
		t.Fatalf("unexpected merges: %v", full)
	}
	if !reflect.DeepEqual(ev, [][]int64{{0}}) {
		t.Fatalf("evicted = %v, want [[0]]", ev)
	}
	if b.Over() || b.Len() != 8 {
		t.Fatalf("over=%v len=%d", b.Over(), b.Len())
	}
}

// The oldest group stays staged, and readable, until its owner drops it,
// so a failed write-back loses nothing.
func TestAlignedStagedUntilDropped(t *testing.T) {
	b := NewAligned(4, 4)
	stageAll(b, []int64{1, 2, 9, 10, 17})
	for i := 0; i < 2; i++ {
		lpn, lsns, ok := b.Oldest()
		if !ok || lpn != 0 || !reflect.DeepEqual(lsns, []int64{1, 2}) {
			t.Fatalf("Oldest = %d %v %v", lpn, lsns, ok)
		}
	}
	if !b.Over() || b.Len() != 5 || !b.Contains(1) {
		t.Fatalf("Oldest removed sectors: len=%d", b.Len())
	}
	b.Drop(0)
	if b.Over() || b.Len() != 3 || b.Contains(1) {
		t.Fatalf("after Drop: len=%d", b.Len())
	}
	b.Drop(0) // dropping an absent page is a no-op
	if b.Len() != 3 {
		t.Fatalf("second Drop changed Len to %d", b.Len())
	}
}

func TestAlignedRemove(t *testing.T) {
	b := NewAligned(4, 64)
	b.Stage([]int64{0, 1, 2})
	b.Remove([]int64{1, 99})
	if b.Contains(1) || !b.Contains(0) || b.Len() != 2 {
		t.Fatal("Remove misbehaved")
	}
	// Removing the last sector of a page drops its tracking entirely.
	b.Remove([]int64{0, 2})
	if b.Len() != 0 {
		t.Fatalf("Len = %d", b.Len())
	}
	if _, _, ok := b.Oldest(); ok {
		t.Fatal("emptied page still tracked")
	}
	// Completing the page later still works from scratch.
	if full := stageAll(b, []int64{0, 1, 2, 3}); !reflect.DeepEqual(full, []int64{0}) {
		t.Fatalf("full = %v", full)
	}
}

func TestAlignedDrain(t *testing.T) {
	b := NewAligned(4, 64)
	b.Stage([]int64{0, 1, 8})
	groups := writeBackAligned(b, true)
	if !reflect.DeepEqual(groups, [][]int64{{0, 1}, {8}}) {
		t.Fatalf("drain = %v", groups)
	}
	if b.Len() != 0 {
		t.Fatal("drain left residue")
	}
	if writeBackAligned(b, true) != nil {
		t.Fatal("second drain non-empty")
	}
}

func TestAlignedPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewAligned(0, 8) },
		func() { NewAligned(65, 650) },
		func() { NewAligned(4, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad config did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: sector conservation — every staged sector leaves exactly once
// (merge, capacity write-back, removal, or drain), and Len always matches.
func TestAlignedConservationProperty(t *testing.T) {
	f := func(ops []struct {
		LSN    uint8
		Remove bool
	}) bool {
		b := NewAligned(4, 16)
		inBuf := make(map[int64]bool)
		for _, op := range ops {
			lsn := int64(op.LSN % 64)
			if op.Remove {
				b.Remove([]int64{lsn})
				delete(inBuf, lsn)
			} else {
				inBuf[lsn] = true
				for _, lpn := range stageAll(b, []int64{lsn}) {
					for s := int64(0); s < 4; s++ {
						if !inBuf[lpn*4+s] {
							return false // merged a sector never staged
						}
						delete(inBuf, lpn*4+s)
					}
				}
				for _, grp := range writeBackAligned(b, false) {
					for _, l := range grp {
						if !inBuf[l] {
							return false
						}
						delete(inBuf, l)
					}
				}
			}
			if b.Len() != len(inBuf) || b.Over() {
				return false
			}
			for l := range inBuf {
				if !b.Contains(l) {
					return false
				}
			}
		}
		rest := 0
		for _, grp := range writeBackAligned(b, true) {
			rest += len(grp)
		}
		return rest == len(inBuf) && b.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
