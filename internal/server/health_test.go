package server_test

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"espftl/internal/core"
	"espftl/internal/ftl"
	"espftl/internal/ftltest"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// stallServer builds a server over a StallFTL-wrapped subFTL on the tiny
// geometry, with a fast watchdog.
func stallServer(t *testing.T, cfg server.Config) (*server.Server, *ftltest.StallFTL) {
	t.Helper()
	const sectors = 512
	dev, err := nand.NewDevice(func() nand.Config {
		c := nand.DefaultConfig()
		c.Geometry = ftltest.TinyGeometry()
		return c
	}(), sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.New(dev, core.DefaultConfig(sectors))
	if err != nil {
		t.Fatal(err)
	}
	stall := ftltest.NewStallFTL(inner)
	cfg.Stacks = []server.ShardStack{{Device: dev, FTL: stall, LogicalSectors: sectors}}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	return srv, stall
}

// TestWatchdogFencesAndRecovers wedges the engine mid-write and checks
// the full degraded-mode arc: the watchdog fences the namespace instead
// of letting every tenant hang, new commands are refused with
// NAMESPACE_FENCED while the stall lasts, recovery is refused while the
// engine is still wedged, and once the stall releases Recover returns
// the namespace to healthy service.
func TestWatchdogFencesAndRecovers(t *testing.T) {
	srv, stall := stallServer(t, server.Config{
		WatchdogInterval: 10 * time.Millisecond,
		WatchdogStalls:   3,
	})

	c, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Wedge the engine: the armed write blocks inside the FTL on the
	// engine goroutine itself.
	stall.Arm()
	wcmd, err := wire.CmdOf(1, workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteCmd(conn(c), wcmd); err != nil {
		t.Fatal(err)
	}
	<-stall.Stalled()

	waitFor(t, 5*time.Second, "watchdog to fence the stalled namespace", func() bool {
		return srv.Stalled() && srv.Health("default") == server.Fenced
	})

	// A second connection's commands are shed with FENCED, not wedged.
	c2, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rcmd, err := wire.CmdOf(9, workload.Request{Op: workload.OpRead, LSN: 0, Sectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteCmd(conn(c2), rcmd); err != nil {
		t.Fatal(err)
	}
	r, err := server.ReadReply(c2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != wire.StatusFenced {
		t.Fatalf("fenced namespace answered %s", wire.StatusName(r.Status))
	}

	// Recovery against a still-wedged engine must refuse, not deadlock.
	if _, err := srv.Recover("default"); err == nil {
		t.Fatal("Recover succeeded while the engine was still stalled")
	} else if want := "server: shard 0 engine still stalled"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Recover error %q, want prefix %q", err, want)
	}

	// Release the stall: the wedged write completes and reaches its
	// client, and recovery now returns the namespace to healthy.
	stall.Release()
	r, err = server.ReadReply(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != wire.StatusOK {
		t.Fatalf("released write answered %s", wire.StatusName(r.Status))
	}
	waitFor(t, 5*time.Second, "recovery after the stall resolves", func() bool {
		h, err := srv.Recover("default")
		return err == nil && h == server.Healthy
	})
	if srv.Stalled() {
		t.Fatal("server still marked stalled after recovery")
	}

	// The recovered namespace serves again.
	cr, err := c2.RunRequests([]workload.Request{
		{Op: workload.OpWrite, LSN: 0, Sectors: 4},
		{Op: workload.OpRead, LSN: 0, Sectors: 4},
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ops != 2 || cr.Errors != 0 {
		t.Fatalf("post-recovery serve: %+v", cr)
	}

	if _, err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestAdmitTimeoutRetryable wedges the engine with a tiny global budget
// and no watchdog: the next command cannot be admitted within
// AdmitTimeout and must come back RETRYABLE instead of blocking the
// reader forever.
func TestAdmitTimeoutRetryable(t *testing.T) {
	srv, stall := stallServer(t, server.Config{
		MaxInflight:      1,
		AdmitTimeout:     50 * time.Millisecond,
		WatchdogInterval: -1, // isolate the admission path from fencing
	})

	c, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stall.Arm()
	wcmd, err := wire.CmdOf(1, workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteCmd(conn(c), wcmd); err != nil {
		t.Fatal(err)
	}
	<-stall.Stalled()

	// The global budget (one slot) is held by the wedged write; this
	// command times out of admission.
	c2, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rcmd, err := wire.CmdOf(7, workload.Request{Op: workload.OpRead, LSN: 0, Sectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteCmd(conn(c2), rcmd); err != nil {
		t.Fatal(err)
	}
	r, err := server.ReadReply(c2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != wire.StatusRetryable {
		t.Fatalf("starved admission answered %s, want RETRYABLE", wire.StatusName(r.Status))
	}

	stall.Release()
	if _, err := server.ReadReply(c); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestHealthInStats checks health and shed counters surface in the STAT
// snapshot after a degraded-mode episode.
func TestHealthInStats(t *testing.T) {
	srv, _ := stallServer(t, server.Config{WatchdogInterval: -1})
	c, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var ns server.NamespaceStats
	if err := json.Unmarshal(payload, &ns); err != nil {
		t.Fatal(err)
	}
	if ns.Health != "healthy" || ns.ShedCommands != 0 {
		t.Fatalf("fresh namespace: health=%q shed=%d", ns.Health, ns.ShedCommands)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// conn exposes a Client's raw connection for tests that speak frames
// directly.
func conn(c *server.Client) net.Conn { return server.RawConn(c) }

var _ ftl.HealthProber = (*ftltest.StallFTL)(nil)
