package ftl

import (
	"sync"
	"testing"

	"espftl/internal/workload"
)

// racyFTL is deliberately unsynchronized: every call mutates plain
// fields, so any concurrent use that Guard fails to serialize is a
// guaranteed data race under -race.
type racyFTL struct {
	writes, reads, trims, flushes, ticks, submits int64
	st                                            Stats
}

func (f *racyFTL) Name() string { return "racy" }
func (f *racyFTL) Write(lsn int64, sectors int, sync bool) error {
	f.writes++
	f.st.HostSectorsWritten += int64(sectors)
	return nil
}
func (f *racyFTL) Read(lsn int64, sectors int) error { f.reads++; return nil }
func (f *racyFTL) Trim(lsn int64, sectors int) error { f.trims++; return nil }
func (f *racyFTL) Flush() error                      { f.flushes++; return nil }
func (f *racyFTL) Tick() error                       { f.ticks++; return nil }
func (f *racyFTL) Stats() Stats                      { return f.st }
func (f *racyFTL) Check() error                      { return nil }
func (f *racyFTL) Recover() (MountReport, error)     { return MountReport{}, nil }
func (f *racyFTL) Submit(r workload.Request, done CompletionFunc) {
	f.submits++
	SubmitSync(f, r, done)
}
func (f *racyFTL) ChipOf(lsn int64) int       { return int(lsn % 7) }
func (f *racyFTL) ReadOnly() bool             { return f.writes > 1 }
func (f *racyFTL) VersionOf(lsn int64) uint32 { return uint32(lsn + 1) }

// TestGuardConcurrentStats is the satellite-1 hammer: one goroutine
// submits I/O as fast as it can while another snapshots Stats; -race
// proves the guard serializes them.
func TestGuardConcurrentStats(t *testing.T) {
	g := NewGuard(&racyFTL{})
	const iters = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			g.Submit(workload.Request{Op: workload.OpWrite, LSN: int64(i), Sectors: 4}, func(error) {})
			if i%64 == 0 {
				_ = g.Flush()
				_ = g.Tick()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = g.Stats()
			_ = g.VersionOf(int64(i))
			_ = g.ChipOf(int64(i))
			_ = g.Name()
		}
	}()
	wg.Wait()
	if got := g.Stats().HostSectorsWritten; got != 4*iters {
		t.Fatalf("HostSectorsWritten = %d (want %d): guard lost submissions", got, 4*iters)
	}
}

func TestGuardDelegation(t *testing.T) {
	inner := &racyFTL{}
	g := NewGuard(inner)
	if g.Unwrap() != FTL(inner) {
		t.Fatal("Unwrap does not return the inner FTL")
	}
	var cbErr error
	g.Submit(workload.Request{Op: workload.OpWrite, LSN: 1, Sectors: 2}, func(e error) { cbErr = e })
	if cbErr != nil || inner.submits != 1 || inner.writes != 1 {
		t.Fatalf("Submit not delegated: err=%v submits=%d writes=%d", cbErr, inner.submits, inner.writes)
	}
	if g.ReadOnly() {
		t.Fatal("ReadOnly after one write")
	}
	if err := g.Write(0, 1, true); err != nil || !g.ReadOnly() {
		t.Fatal("ReadOnly not delegated")
	}
	if g.ChipOf(10) != 3 {
		t.Fatalf("ChipOf = %d", g.ChipOf(10))
	}
	if g.VersionOf(10) != 11 {
		t.Fatalf("VersionOf = %d", g.VersionOf(10))
	}
	if err := g.Read(0, 1); err != nil || inner.reads != 1 {
		t.Fatal("Read not delegated")
	}
	if err := g.Trim(0, 1); err != nil || inner.trims != 1 {
		t.Fatal("Trim not delegated")
	}
	if _, err := g.Recover(); err != nil {
		t.Fatal("Recover not delegated")
	}
	if err := g.Check(); err != nil {
		t.Fatal("Check not delegated")
	}
}
