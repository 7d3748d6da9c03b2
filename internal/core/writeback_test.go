package core

import (
	"errors"
	"testing"
	"time"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/ftltest"
	"espftl/internal/nand"
)

// newFaultyFTL builds subFTL over the tiny geometry widened to 32 blocks
// per chip, room for the blocks a scripted failure storm retires, and
// returns the device's injector for the test to script.
func newFaultyFTL(t *testing.T) (*FTL, *fault.Injector) {
	t.Helper()
	g := ftltest.TinyGeometry()
	g.BlocksPerChip = 32
	dev, inj := ftltest.CrashEnv{Geometry: g}.NewDevice(t)
	f, err := New(dev, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f, inj
}

// failEveryProgram scripts the next n programs, on any block, to fail.
func failEveryProgram(inj *fault.Injector, n int) {
	inj.Script(fault.Event{Kind: fault.KindProgram, Chip: -1, Block: -1, Count: n})
}

// stageScattered stages one async sector in each of three logical pages
// and returns the sectors with their acknowledged versions.
func stageScattered(t *testing.T, f *FTL) map[int64]uint32 {
	t.Helper()
	staged := make(map[int64]uint32)
	for _, lsn := range []int64{10, 100, 200} {
		if err := f.Write(lsn, 1, false); err != nil {
			t.Fatal(err)
		}
		staged[lsn] = f.VersionOf(lsn)
		if staged[lsn] == 0 || !f.buf.Contains(lsn) {
			t.Fatalf("lsn %d not staged", lsn)
		}
	}
	return staged
}

// A write-back that fails keeps its group staged: both flushes report the
// failure, every sector stays buffered at its acknowledged version, and
// once the faults stop a flush lands them all.
func TestWriteBackFailureKeepsStagedData(t *testing.T) {
	f, inj := newFaultyFTL(t)
	staged := stageScattered(t, f)
	failEveryProgram(inj, 2*(ftl.MaxProgramReplays+1))
	for i := 0; i < 2; i++ {
		if err := f.Flush(); err == nil {
			t.Fatalf("flush %d succeeded with every program failing", i)
		}
		for lsn, v := range staged {
			if got := f.VersionOf(lsn); got != v || !f.buf.Contains(lsn) {
				t.Fatalf("flush %d: lsn %d version %d (want %d), buffered %v", i, lsn, got, v, f.buf.Contains(lsn))
			}
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatalf("flush after the faults stopped: %v", err)
	}
	if f.buf.Len() != 0 {
		t.Fatalf("%d sectors still staged after a clean flush", f.buf.Len())
	}
	for lsn, v := range staged {
		if err := f.Read(lsn, 1); err != nil {
			t.Fatal(err)
		}
		if got := f.VersionOf(lsn); got != v {
			t.Fatalf("lsn %d landed at version %d, want %d", lsn, got, v)
		}
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// A read-only device refuses write-back instead of relocating data at its
// capacity floor: Flush reports ftl.ErrReadOnly, programs nothing, and
// the staged data stays readable from the buffer.
func TestReadOnlyRefusesWriteBack(t *testing.T) {
	env := newEnv(t)
	f := env.FTL.(*FTL)
	staged := stageScattered(t, f)
	for b := 0; b < env.Dev.Geometry().TotalBlocks() && !f.ReadOnly(); b++ {
		if id := nand.BlockID(b); f.Man.State(id) == ftl.StateFree {
			f.Man.Retire(id)
		}
	}
	if !f.ReadOnly() {
		t.Fatal("retiring every free block left the device writable")
	}
	before := env.Dev.Counters()
	if err := f.Flush(); !errors.Is(err, ftl.ErrReadOnly) {
		t.Fatalf("Flush on a read-only device = %v, want ErrReadOnly", err)
	}
	if after := env.Dev.Counters(); after.SubPrograms != before.SubPrograms || after.PagePrograms != before.PagePrograms {
		t.Fatal("a refused write-back programmed flash")
	}
	for lsn, v := range staged {
		if got := f.VersionOf(lsn); got != v || !f.buf.Contains(lsn) {
			t.Fatalf("lsn %d version %d (want %d), buffered %v", lsn, got, v, f.buf.Contains(lsn))
		}
		if err := f.Read(lsn, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// A pass that exhausts its program replays retires its write block like
// the replays before it, so later writes take a fresh block instead of
// retrying the spent page forever.
func TestFinalProgramFailureRetiresWriteBlock(t *testing.T) {
	f, inj := newFaultyFTL(t)
	failEveryProgram(inj, ftl.MaxProgramReplays+1)
	if err := f.Write(5, 1, true); err == nil {
		t.Fatal("write succeeded with every program failing")
	}
	for i := int64(0); i < 8; i++ {
		if err := f.Write(5+4*i, 1, true); err != nil {
			t.Fatalf("write %d after the faults stopped: %v", i, err)
		}
	}
	if got, want := f.Stats().GrownBadBlocks, int64(ftl.MaxProgramReplays+1); got != want {
		t.Fatalf("grown bad blocks = %d, want %d", got, want)
	}
	if err := f.Read(5, 29); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// A GC relocation that exhausts its program replays retires its last
// destination too, so the next relocation opens a fresh block instead of
// programming past a destroyed page. The move is driven directly: inside
// a whole collection, the victim's cold survivors would take the scripted
// failures on their way to the full-page region first.
func TestFinalGCMoveFailureRetiresDestination(t *testing.T) {
	f, inj := newFaultyFTL(t)
	if err := f.Write(5, 1, true); err != nil {
		t.Fatal(err)
	}
	spn, ok := f.hash.Get(5)
	if !ok {
		t.Fatal("a small sync write missed the subpage region")
	}
	g := f.Dev.Geometry()
	p := g.PageOfSubpage(nand.SubpageID(spn))
	move := func() error {
		survs := f.survivorsIn(p, f.PageSecs)
		stamps, err := f.readPageVerified(p, survs)
		if err != nil {
			t.Fatal(err)
		}
		return f.gcMoveGroup(survs, stamps)
	}
	failEveryProgram(inj, ftl.MaxProgramReplays+1)
	if err := move(); !errors.Is(err, nand.ErrProgramFail) {
		t.Fatalf("move with every program failing = %v, want ErrProgramFail", err)
	}
	if f.gcDestSet {
		t.Fatalf("GC destination %d kept after its program failed", f.gcDest)
	}
	if got, want := f.Stats().GrownBadBlocks, int64(ftl.MaxProgramReplays+1); got != want {
		t.Fatalf("grown bad blocks = %d, want %d", got, want)
	}
	if err := move(); err != nil {
		t.Fatalf("move after the faults stopped: %v", err)
	}
	if err := f.Read(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// A retention eviction lands its full-page copy before dropping the
// subpage one: when that write fails the tick reports it and the sector
// keeps its subpage copy, still mapped and readable.
func TestFailedEvictionKeepsSubCopy(t *testing.T) {
	f, inj := newFaultyFTL(t)
	if err := f.Write(50, 1, true); err != nil {
		t.Fatal(err)
	}
	want := f.VersionOf(50)
	f.Dev.Clock().Advance(16 * 24 * time.Hour)
	failEveryProgram(inj, ftl.MaxProgramReplays+1)
	if err := f.Tick(); err == nil {
		t.Fatal("retention tick succeeded with every program failing")
	}
	if got := f.VersionOf(50); got != want {
		t.Fatalf("VersionOf after a failed eviction = %d, want %d", got, want)
	}
	if _, ok := f.hash.Get(50); !ok {
		t.Fatal("subpage copy unmapped by a failed eviction")
	}
	if err := f.Read(50, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

// A small async write whose middle sector completes a page keeps all of
// itself staged when that page's full-page write fails: the merged page
// and the sector staged after it both stay buffered until a clean flush
// lands them.
func TestFailedMergeKeepsWriteStaged(t *testing.T) {
	f, inj := newFaultyFTL(t)
	if err := f.Write(0, 2, false); err != nil {
		t.Fatal(err)
	}
	failEveryProgram(inj, ftl.MaxProgramReplays+1)
	if err := f.Write(2, 3, false); err == nil {
		t.Fatal("merged page landed with every program failing")
	}
	for lsn := int64(0); lsn < 5; lsn++ {
		if !f.buf.Contains(lsn) || f.VersionOf(lsn) == 0 {
			t.Fatalf("lsn %d left the buffer without landing", lsn)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}
