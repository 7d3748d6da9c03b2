package fgm

import (
	"errors"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/ftltest"
	"espftl/internal/nand"
)

// stageScattered stages three async sectors, less than a page, and
// returns them with their acknowledged versions.
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

// A write-back that fails keeps its sectors staged: both flushes report
// the failure, every sector stays buffered at its acknowledged version,
// and once the faults stop a flush lands them all.
func TestWriteBackFailureKeepsStagedData(t *testing.T) {
	g := ftltest.TinyGeometry()
	g.BlocksPerChip = 32 // room for the blocks the failure storm retires
	dev, inj := ftltest.CrashEnv{Geometry: g}.NewDevice(t)
	f, err := New(dev, Config{LogicalSectors: 512, GCReserveBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	staged := stageScattered(t, f)
	inj.Script(fault.Event{Kind: fault.KindProgram, Chip: -1, Block: -1, Count: 2 * (ftl.MaxProgramReplays + 1)})
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

// A read-only device refuses write-back: Flush reports ftl.ErrReadOnly,
// programs nothing, and the staged data stays readable from the buffer.
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
	before := env.Dev.Counters().PagePrograms
	if err := f.Flush(); !errors.Is(err, ftl.ErrReadOnly) {
		t.Fatalf("Flush on a read-only device = %v, want ErrReadOnly", err)
	}
	if env.Dev.Counters().PagePrograms != before {
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

// A write that exhausts its program replays retires the block of its last
// attempt like the ones before it, so later writes take a fresh block
// instead of filling one whose page is destroyed.
func TestFinalProgramFailureRetiresBlock(t *testing.T) {
	g := ftltest.TinyGeometry()
	g.BlocksPerChip = 32 // room for the blocks the failure storm retires
	dev, inj := ftltest.CrashEnv{Geometry: g}.NewDevice(t)
	f, err := New(dev, Config{LogicalSectors: 512, GCReserveBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	inj.Script(fault.Event{Kind: fault.KindProgram, Chip: -1, Block: -1, Count: ftl.MaxProgramReplays + 1})
	if err := f.Write(5, 1, true); !errors.Is(err, nand.ErrProgramFail) {
		t.Fatalf("write with every program failing = %v, want ErrProgramFail", err)
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
