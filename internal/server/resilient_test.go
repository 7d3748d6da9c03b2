package server_test

import (
	"net"
	"testing"
	"time"

	"espftl/internal/chaos"
	"espftl/internal/core"
	"espftl/internal/ftltest"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// tearServer serves a fresh subFTL on the tiny geometry with the
// watchdog off and returns it behind a proxy that tears each of the first
// tears connections after limit bytes of replies.
func tearServer(t *testing.T, tears int32, limit int) (*server.Server, *chaos.TearProxy) {
	t.Helper()
	dev, err := nand.NewDevice(func() nand.Config {
		c := nand.DefaultConfig()
		c.Geometry = ftltest.TinyGeometry()
		return c
	}(), sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(dev, core.DefaultConfig(tornSectors))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Stacks:           []server.ShardStack{{Device: dev, FTL: f, LogicalSectors: tornSectors}},
		WatchdogInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	proxy, err := chaos.NewTearProxy(srv.Addr(), tears, limit)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return srv, proxy
}

const tornSectors = 512

// writeStream is mixedStream without trims: the model's replay slack
// covers ambiguous writes, not ambiguous trims.
func writeStream(t *testing.T, pageSectors, n int, seed uint64) []workload.Request {
	reqs := mixedStream(t, tornSectors, pageSectors, n, seed)
	out := reqs[:0]
	for _, r := range reqs {
		if r.Op != workload.OpTrim {
			out = append(out, r)
		}
	}
	return out
}

// TestResilientSurvivesTornConnections replays a model-checked stream
// through a proxy that tears the connection several times mid-run: the
// resilient client reconnects, replays its unacknowledged tail, and
// finishes the whole stream; the recovered device state must satisfy
// the differential model with replay slack — no acknowledged write
// lost, replayed ambiguity legal.
func TestResilientSurvivesTornConnections(t *testing.T) {
	srv, proxy := tearServer(t, 4, 600)
	c, err := server.DialTimeout(proxy.Addr(), "default", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reqs := writeStream(t, int(c.Welcome.PageSectors), 400, 21)

	m := ftltest.NewModel(tornSectors)
	i := 0
	cr, err := c.Run(func() (workload.Request, bool) {
		if i >= len(reqs) {
			return workload.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}, 1, server.RetryPolicy{
		RequestTimeout: 2 * time.Second,
		MaxAttempts:    8,
		MaxReconnects:  32,
		Seed:           7,
		OnReplay: func(r workload.Request) {
			if r.Op == workload.OpWrite {
				m.MaybeWrite(r.LSN, r.Sectors)
			}
		},
	}, func(r server.Reply) {
		if r.Rep.Status != wire.StatusOK {
			return
		}
		switch r.Req.Op {
		case workload.OpWrite:
			m.Write(r.Req.LSN, r.Req.Sectors, r.Req.Sync)
		case workload.OpFlush:
			m.Flush()
		}
	})
	if err != nil {
		t.Fatalf("resilient run: %v", err)
	}
	if cr.Ops != int64(len(reqs)) {
		t.Fatalf("completed %d of %d requests", cr.Ops, len(reqs))
	}
	if cr.Reconnects == 0 {
		t.Fatal("proxy tore the stream but the client never reconnected")
	}
	if cr.Errors != 0 {
		t.Fatalf("%d errors on a healthy device", cr.Errors)
	}

	if _, err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Differential check: every sector's version must be explainable by
	// the acknowledged history plus replay slack.
	guard := srv.ShardFTL(0)
	for lsn := int64(0); lsn < tornSectors; lsn++ {
		v := guard.VersionOf(lsn)
		if !m.Acceptable(lsn, v) {
			t.Fatalf("sector %d: version %d outside acceptable %s", lsn, v, m.Describe(lsn))
		}
	}
}

// starveAdmission serves a one-slot namespace with a 30ms admission
// timeout and wedges its engine on a write from c1, so any other
// client's request is refused RETRYABLE until stall releases.
func starveAdmission(t *testing.T) (*server.Server, *ftltest.StallFTL, *server.Client) {
	t.Helper()
	srv, stall := stallServer(t, server.Config{
		MaxInflight:      1,
		AdmitTimeout:     30 * time.Millisecond,
		WatchdogInterval: -1,
	})
	c1, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c1.Close() })
	stall.Arm()
	cmd, err := wire.CmdOf(1, workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteCmd(conn(c1), cmd); err != nil {
		t.Fatal(err)
	}
	<-stall.Stalled()
	return srv, stall, c1
}

// TestResilientRetryBackoff starves admission behind a wedged engine:
// the resilient client's read comes back RETRYABLE, it backs off and
// retries, and once the stall releases the retry succeeds.
func TestResilientRetryBackoff(t *testing.T) {
	srv, stall, c1 := starveAdmission(t)

	// Release the stall shortly after the second client's first
	// attempt has had time to bounce off admission.
	go func() {
		time.Sleep(100 * time.Millisecond)
		stall.Release()
	}()

	c2, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	reqs := []workload.Request{{Op: workload.OpRead, LSN: 0, Sectors: 4}}
	i := 0
	cr, err := c2.Run(func() (workload.Request, bool) {
		if i >= len(reqs) {
			return workload.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}, 1, server.RetryPolicy{
		MaxAttempts: 20,
		Seed:        3,
	}, nil)
	if err != nil {
		t.Fatalf("resilient run: %v", err)
	}
	if cr.Retries == 0 {
		t.Fatal("admission starvation never produced a retry")
	}
	if cr.Errors != 0 || cr.Ops != 1 {
		t.Fatalf("final outcome: %+v", cr)
	}
	if cr.Statuses[wire.StatusOK] != 1 {
		t.Fatalf("statuses: %v", cr.Statuses)
	}

	if _, err := server.ReadReply(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestZeroPolicyFailsFast pins what the zero RetryPolicy promises callers
// of RunRequests: a torn connection fails the run without a reconnect,
// and a RETRYABLE admission refusal is the request's final status.
func TestZeroPolicyFailsFast(t *testing.T) {
	_, proxy := tearServer(t, 1, 600)
	c, err := server.DialTimeout(proxy.Addr(), "default", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reqs := writeStream(t, int(c.Welcome.PageSectors), 400, 21)
	cr, err := c.RunRequests(reqs, 1, nil)
	if err == nil {
		t.Fatal("run through a tearing proxy succeeded")
	}
	if cr.Reconnects != 0 || cr.Ops >= int64(len(reqs)) {
		t.Fatalf("torn run: %d reconnects, %d of %d ops", cr.Reconnects, cr.Ops, len(reqs))
	}

	srv, stall, c1 := starveAdmission(t)
	c2, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cr, err = c2.RunRequests([]workload.Request{{Op: workload.OpRead, LSN: 0, Sectors: 4}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ops != 1 || cr.Retries != 0 || cr.Statuses[wire.StatusRetryable] != 1 {
		t.Fatalf("starved read: %+v", cr)
	}
	stall.Release()
	if _, err := server.ReadReply(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDialTimeout points the client at a listener that accepts and then
// never handshakes: DialTimeout must fail within its bound instead of
// hanging forever.
func TestDialTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // accept and go silent
		}
	}()

	start := time.Now()
	_, err = server.DialTimeout(ln.Addr().String(), "default", 100*time.Millisecond)
	if err == nil {
		t.Fatal("dial against a mute listener succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial took %v despite a 100ms timeout", elapsed)
	}
}
