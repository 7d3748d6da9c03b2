// Package ftltest provides the conformance suite shared by the three FTL
// implementations. Every FTL verifies integrity stamps on its own read
// path, so "replay a workload, then read everything back" exercises the
// full correctness contract: read-your-writes across buffering, GC,
// relocation, region moves and trims.
package ftltest

import (
	"math"
	"testing"

	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// Env bundles a device and an FTL under test.
type Env struct {
	Dev *nand.Device
	FTL ftl.FTL
	// Sectors is the exported logical space used by the suite.
	Sectors int64
}

// Factory builds a fresh environment for each subtest.
type Factory func(t *testing.T) *Env

// TinyGeometry is the small device geometry the conformance suite runs on.
func TinyGeometry() nand.Geometry {
	return nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		BlocksPerChip:   8,
		PagesPerBlock:   8,
		SubpagesPerPage: 4,
		SubpageBytes:    4096,
	}
}

// TinyDevice builds a device with TinyGeometry on a fresh clock.
func TinyDevice(t *testing.T) *nand.Device {
	t.Helper()
	cfg := nand.DefaultConfig()
	cfg.Geometry = TinyGeometry()
	d, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatalf("TinyDevice: %v", err)
	}
	return d
}

// check runs the FTL's invariant checker and fails the test on violation.
func check(t *testing.T, e *Env, context string) {
	t.Helper()
	if err := e.FTL.Check(); err != nil {
		t.Fatalf("%s: invariant violation: %v", context, err)
	}
}

// readAll reads every sector that has been written, one request per
// sector, relying on the FTL's internal stamp verification.
func readAll(t *testing.T, e *Env, written map[int64]bool) {
	t.Helper()
	for lsn := range written {
		if err := e.FTL.Read(lsn, 1); err != nil {
			t.Fatalf("read-back of lsn %d: %v", lsn, err)
		}
	}
}

// Run executes the full conformance suite against the factory.
func Run(t *testing.T, mk Factory) {
	t.Run("SequentialFillAndReadBack", func(t *testing.T) { sequentialFill(t, mk(t)) })
	t.Run("SmallSyncWrites", func(t *testing.T) { smallSyncWrites(t, mk(t)) })
	t.Run("SmallAsyncMerging", func(t *testing.T) { smallAsyncMerging(t, mk(t)) })
	t.Run("MisalignedLargeWrites", func(t *testing.T) { misalignedLarge(t, mk(t)) })
	t.Run("OverwriteChurnGC", func(t *testing.T) { overwriteChurn(t, mk(t)) })
	t.Run("TrimThenRead", func(t *testing.T) { trimThenRead(t, mk(t)) })
	t.Run("RandomizedWorkload", func(t *testing.T) { randomized(t, mk(t)) })
	t.Run("BoundsRejected", func(t *testing.T) { bounds(t, mk(t)) })
	t.Run("StatsAccounting", func(t *testing.T) { statsAccounting(t, mk(t)) })
}

func sequentialFill(t *testing.T, e *Env) {
	ps := e.Dev.Geometry().SubpagesPerPage
	written := make(map[int64]bool)
	for lsn := int64(0); lsn+int64(ps) <= e.Sectors; lsn += int64(ps) {
		if err := e.FTL.Write(lsn, ps, false); err != nil {
			t.Fatalf("write %d: %v", lsn, err)
		}
		for i := 0; i < ps; i++ {
			written[lsn+int64(i)] = true
		}
	}
	if err := e.FTL.Flush(); err != nil {
		t.Fatal(err)
	}
	check(t, e, "after fill")
	readAll(t, e, written)
	// Ranged reads across page boundaries.
	if err := e.FTL.Read(1, ps*3); err != nil {
		t.Fatalf("ranged read: %v", err)
	}
}

func smallSyncWrites(t *testing.T, e *Env) {
	written := make(map[int64]bool)
	rng := sim.NewRNG(11)
	for i := 0; i < 300; i++ {
		lsn := rng.Int63n(e.Sectors)
		if err := e.FTL.Write(lsn, 1, true); err != nil {
			t.Fatalf("sync write %d: %v", i, err)
		}
		written[lsn] = true
	}
	check(t, e, "after sync writes")
	readAll(t, e, written)
}

func smallAsyncMerging(t *testing.T, e *Env) {
	written := make(map[int64]bool)
	// Consecutive async small writes that a buffer can merge.
	for lsn := int64(0); lsn < 64; lsn++ {
		if err := e.FTL.Write(lsn, 1, false); err != nil {
			t.Fatal(err)
		}
		written[lsn] = true
	}
	// Scattered async small writes that cannot merge (aligned buffers).
	rng := sim.NewRNG(13)
	for i := 0; i < 100; i++ {
		lsn := rng.Int63n(e.Sectors)
		if err := e.FTL.Write(lsn, 1, false); err != nil {
			t.Fatal(err)
		}
		written[lsn] = true
	}
	// Reads must be correct both before and after the flush.
	readAll(t, e, written)
	if err := e.FTL.Flush(); err != nil {
		t.Fatal(err)
	}
	check(t, e, "after flush")
	readAll(t, e, written)
}

func misalignedLarge(t *testing.T, e *Env) {
	ps := e.Dev.Geometry().SubpagesPerPage
	written := make(map[int64]bool)
	rng := sim.NewRNG(17)
	for i := 0; i < 100; i++ {
		size := ps + rng.Intn(ps*2)
		lsn := rng.Int63n(e.Sectors - int64(size))
		if err := e.FTL.Write(lsn, size, false); err != nil {
			t.Fatalf("misaligned write %d: %v", i, err)
		}
		for j := 0; j < size; j++ {
			written[lsn+int64(j)] = true
		}
	}
	if err := e.FTL.Flush(); err != nil {
		t.Fatal(err)
	}
	check(t, e, "after misaligned writes")
	readAll(t, e, written)
}

func overwriteChurn(t *testing.T, e *Env) {
	// Hammer a small working set with far more writes than its size so GC
	// must run repeatedly; verify nothing is lost.
	ws := e.Sectors / 4
	rng := sim.NewRNG(19)
	written := make(map[int64]bool)
	raw := e.Dev.Geometry().CapacityBytes() / int64(e.Dev.Geometry().SubpageBytes)
	churn := int(raw * 3)
	for i := 0; i < churn; i++ {
		lsn := rng.Int63n(ws)
		sync := rng.Bool(0.5)
		if err := e.FTL.Write(lsn, 1, sync); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		written[lsn] = true
		if i%512 == 0 {
			check(t, e, "mid churn")
		}
	}
	if err := e.FTL.Flush(); err != nil {
		t.Fatal(err)
	}
	check(t, e, "after churn")
	readAll(t, e, written)
	if gc := e.FTL.Stats().GCInvocations; gc == 0 {
		t.Error("churn did not trigger GC; workload too small for the device")
	}
}

func trimThenRead(t *testing.T, e *Env) {
	ps := e.Dev.Geometry().SubpagesPerPage
	for lsn := int64(0); lsn < 64; lsn += int64(ps) {
		if err := e.FTL.Write(lsn, ps, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FTL.Flush(); err != nil {
		t.Fatal(err)
	}
	// Trim half of it, including partial pages.
	if err := e.FTL.Trim(0, 10); err != nil {
		t.Fatal(err)
	}
	check(t, e, "after trim")
	// Trimmed sectors read as zeroes (no error), live ones verify.
	if err := e.FTL.Read(0, 64); err != nil {
		t.Fatalf("read over trimmed range: %v", err)
	}
	// Rewrite trimmed sectors and read back.
	if err := e.FTL.Write(0, 10, true); err != nil {
		t.Fatal(err)
	}
	if err := e.FTL.Read(0, 10); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
	check(t, e, "after rewrite")
}

func randomized(t *testing.T, e *Env) {
	ps := e.Dev.Geometry().SubpagesPerPage
	rng := sim.NewRNG(23)
	written := make(map[int64]bool)
	for i := 0; i < 4000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // small write
			lsn := rng.Int63n(e.Sectors)
			n := 1 + rng.Intn(ps-1)
			if lsn+int64(n) > e.Sectors {
				n = int(e.Sectors - lsn)
			}
			if err := e.FTL.Write(lsn, n, rng.Bool(0.5)); err != nil {
				t.Fatalf("op %d small write: %v", i, err)
			}
			for j := 0; j < n; j++ {
				written[lsn+int64(j)] = true
			}
		case 5, 6: // large write
			n := ps * (1 + rng.Intn(3))
			lsn := rng.Int63n(e.Sectors - int64(n))
			if err := e.FTL.Write(lsn, n, false); err != nil {
				t.Fatalf("op %d large write: %v", i, err)
			}
			for j := 0; j < n; j++ {
				written[lsn+int64(j)] = true
			}
		case 7, 8: // read of anything
			lsn := rng.Int63n(e.Sectors)
			n := 1 + rng.Intn(ps*2)
			if lsn+int64(n) > e.Sectors {
				n = int(e.Sectors - lsn)
			}
			if n == 0 {
				continue
			}
			if err := e.FTL.Read(lsn, n); err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
		case 9: // trim
			lsn := rng.Int63n(e.Sectors)
			n := 1 + rng.Intn(ps)
			if lsn+int64(n) > e.Sectors {
				n = int(e.Sectors - lsn)
			}
			if n == 0 {
				continue
			}
			if err := e.FTL.Trim(lsn, n); err != nil {
				t.Fatalf("op %d trim: %v", i, err)
			}
			for j := 0; j < n; j++ {
				delete(written, lsn+int64(j))
			}
		}
		if i%997 == 0 {
			check(t, e, "mid randomized")
			if err := e.FTL.Tick(); err != nil {
				t.Fatalf("op %d tick: %v", i, err)
			}
		}
	}
	if err := e.FTL.Flush(); err != nil {
		t.Fatal(err)
	}
	check(t, e, "after randomized")
	readAll(t, e, written)
}

func bounds(t *testing.T, e *Env) {
	cases := []struct {
		lsn int64
		n   int
	}{
		{-1, 1}, {0, 0}, {0, -3}, {e.Sectors, 1}, {e.Sectors - 1, 2},
		{math.MaxInt64, 4}, {math.MaxInt64 - 1, 2},
	}
	for _, c := range cases {
		if err := e.FTL.Write(c.lsn, c.n, false); err == nil {
			t.Errorf("Write(%d,%d) accepted", c.lsn, c.n)
		}
		if err := e.FTL.Read(c.lsn, c.n); err == nil {
			t.Errorf("Read(%d,%d) accepted", c.lsn, c.n)
		}
		if err := e.FTL.Trim(c.lsn, c.n); err == nil {
			t.Errorf("Trim(%d,%d) accepted", c.lsn, c.n)
		}
	}
}

func statsAccounting(t *testing.T, e *Env) {
	ps := e.Dev.Geometry().SubpagesPerPage
	if err := e.FTL.Write(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := e.FTL.Write(int64(ps), ps, false); err != nil {
		t.Fatal(err)
	}
	if err := e.FTL.Read(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.FTL.Flush(); err != nil {
		t.Fatal(err)
	}
	s := e.FTL.Stats()
	if s.HostWriteReqs != 2 || s.HostReadReqs != 1 {
		t.Fatalf("host counters: %+v", s)
	}
	if s.SmallWriteReqs != 1 {
		t.Fatalf("SmallWriteReqs = %d, want 1", s.SmallWriteReqs)
	}
	if s.HostSectorsWritten != int64(1+ps) {
		t.Fatalf("HostSectorsWritten = %d", s.HostSectorsWritten)
	}
	if s.SmallHostBytes != 4096 {
		t.Fatalf("SmallHostBytes = %d", s.SmallHostBytes)
	}
	if s.SmallFlashBytes < s.SmallHostBytes {
		t.Fatalf("SmallFlashBytes = %d below host bytes %d", s.SmallFlashBytes, s.SmallHostBytes)
	}
	if s.Device.BytesWritten == 0 {
		t.Fatal("no flash bytes recorded")
	}
	if s.MappingBytes == 0 || s.SectorBytes != 4096 {
		t.Fatalf("mapping/sector bytes: %+v", s)
	}
	if e.FTL.Name() == "" {
		t.Fatal("empty FTL name")
	}
	// A refused request is refused before admission counts anything.
	if e.FTL.Write(e.Sectors, 1, true) == nil || e.FTL.Read(e.Sectors-1, 2) == nil || e.FTL.Trim(-1, 1) == nil {
		t.Fatal("out-of-range request accepted")
	}
	if got := e.FTL.Stats(); got != s {
		t.Fatalf("refused requests moved the counters:\n%#v\nwant\n%#v", got, s)
	}
	if err := e.FTL.Trim(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := e.FTL.Stats().HostTrimReqs; got != 1 {
		t.Fatalf("HostTrimReqs = %d after one trim, want 1", got)
	}
}
