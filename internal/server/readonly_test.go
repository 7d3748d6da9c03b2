package server_test

import (
	"encoding/json"
	"testing"

	"espftl/internal/experiment"
	"espftl/internal/fault"
	"espftl/internal/ftltest"
	"espftl/internal/server"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// TestReadOnlyPropagation drives each FTL over TCP while an aggressive
// erase-failure storm retires its blocks, until the capacity floor
// degrades the device to read-only — and asserts the degradation is a
// typed, per-op condition at the wire: WRITEs answer READ_ONLY, READs of
// already-written data keep succeeding, and the namespace's health in
// STAT says read-only. This is ftl.ErrReadOnly traveling the whole
// serve path instead of dying inside the engine.
func TestReadOnlyPropagation(t *testing.T) {
	for _, kind := range []experiment.Kind{experiment.KindCGM, experiment.KindFGM, experiment.KindSub} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			// A storm profile: one erase in ten fails, so GC eats the
			// spare pool within a few thousand writes on the tiny device
			// while plenty of writes still land first.
			prof := fault.Profile{Seed: 11, EraseFailProb: 0.1}
			dev, f, logical, err := experiment.Build(experiment.RunConfig{
				Kind:         kind,
				Geometry:     ftltest.TinyGeometry(),
				LogicalFrac:  0.35,
				FaultProfile: &prof,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(server.Config{
				Stacks:           []server.ShardStack{{Device: dev, FTL: f, LogicalSectors: logical}},
				WatchdogInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Serve(); err != nil {
				t.Fatal(err)
			}
			c, err := server.Dial(srv.Addr(), "default")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Seed some data while the device is healthy, then churn
			// overwrites until the floor trips.
			ps := int64(c.Welcome.PageSectors)
			seededLSN := int64(-1)
			var sawReadOnly bool
			write := func(lsn int64) uint8 {
				var status uint8
				cr, err := c.RunRequests([]workload.Request{
					{Op: workload.OpWrite, LSN: lsn, Sectors: int(ps)},
				}, 1, func(r server.Reply) { status = r.Rep.Status })
				if err != nil {
					t.Fatalf("write churn: %v", err)
				}
				_ = cr
				return status
			}
			for i := 0; i < 20000 && !sawReadOnly; i++ {
				lsn := (int64(i) % (logical / ps)) * ps
				switch st := write(lsn); st {
				case wire.StatusOK:
					seededLSN = lsn
				case wire.StatusReadOnly:
					sawReadOnly = true
				case wire.StatusErr:
					// A transient program failure mid-storm; keep churning.
				default:
					t.Fatalf("unexpected write status %s", wire.StatusName(st))
				}
			}
			if !sawReadOnly {
				t.Fatal("device never degraded to read-only under the erase storm")
			}
			if seededLSN < 0 {
				t.Fatal("no successful write before the floor tripped")
			}

			// The breaker is now open: the next write is shed with
			// READ_ONLY without an engine round-trip, and reads of the
			// seeded page still succeed.
			if st := write(seededLSN); st != wire.StatusReadOnly {
				t.Fatalf("post-floor write got %s, want READ_ONLY", wire.StatusName(st))
			}
			var readStatus uint8
			if _, err := c.RunRequests([]workload.Request{
				{Op: workload.OpRead, LSN: seededLSN, Sectors: int(ps)},
			}, 1, func(r server.Reply) { readStatus = r.Rep.Status }); err != nil {
				t.Fatalf("read in read-only mode: %v", err)
			}
			if readStatus != wire.StatusOK {
				t.Fatalf("read in read-only mode got %s", wire.StatusName(readStatus))
			}

			// Health is surfaced: STAT reports read-only and a non-zero
			// shed count (the breaker-refused write above).
			payload, err := c.Stat()
			if err != nil {
				t.Fatal(err)
			}
			var ns server.NamespaceStats
			if err := json.Unmarshal(payload, &ns); err != nil {
				t.Fatal(err)
			}
			if ns.Health != "read-only" || ns.ShedCommands == 0 {
				t.Fatalf("STAT after floor: health=%q shed=%d", ns.Health, ns.ShedCommands)
			}

			if _, err := srv.Shutdown(); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}
