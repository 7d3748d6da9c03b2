package ftltest

import (
	"errors"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/nand"
)

// TestFailedWriteUnwindsVersions fails the second page of a two-page sync
// write past its program replays. The first page landed, so the write
// reports ftl.ErrPartialWrite; the version tracker is unwound to what
// landed (the first page's sectors at their new version, the second's at
// their old one), and every sector reads back and passes Check.
func TestFailedWriteUnwindsVersions(t *testing.T) {
	for _, tc := range lifetimeEnvs("", false) {
		t.Run(tc.name, func(t *testing.T) {
			dev, inj := tc.env.NewDevice(t)
			f, err := tc.env.Factory(dev)
			if err != nil {
				t.Fatal(err)
			}
			ps := dev.Geometry().SubpagesPerPage
			if err := f.Write(0, 2*ps, true); err != nil {
				t.Fatal(err)
			}
			inj.Script(fault.Event{Kind: fault.KindProgram, Chip: -1, Block: -1, After: 1, Count: ftl.MaxProgramReplays + 1})
			err = f.Write(0, 2*ps, true)
			if !errors.Is(err, ftl.ErrPartialWrite) || !errors.Is(err, nand.ErrProgramFail) {
				t.Fatalf("second write: %v, want a partial write failing its program", err)
			}
			for lsn := int64(0); lsn < int64(2*ps); lsn++ {
				want := uint32(1)
				if lsn < int64(ps) {
					want = 2
				}
				if got := f.VersionOf(lsn); got != want {
					t.Errorf("lsn %d at version %d, want %d", lsn, got, want)
				}
				if err := f.Read(lsn, 1); err != nil {
					t.Errorf("read lsn %d: %v", lsn, err)
				}
			}
			if err := f.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
