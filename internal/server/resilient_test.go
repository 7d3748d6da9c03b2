package server_test

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"espftl/internal/core"
	"espftl/internal/ftltest"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// tearProxy forwards TCP between the client and a backend, cutting the
// connection after a byte budget of server->client traffic for the
// first `tears` connections — a deterministic-enough stand-in for a
// flaky network that loses acknowledgments mid-stream.
type tearProxy struct {
	ln     net.Listener
	target string
	tears  atomic.Int32
	limit  int
}

func newTearProxy(t *testing.T, target string, tears int32, limit int) *tearProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &tearProxy{ln: ln, target: target, limit: limit}
	p.tears.Store(tears)
	go p.run()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *tearProxy) addr() string { return p.ln.Addr().String() }

func (p *tearProxy) run() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		go func() {
			tearing := p.tears.Add(-1) >= 0
			go func() { io.Copy(s, c); s.Close() }()
			if !tearing {
				io.Copy(c, s)
				c.Close()
				return
			}
			// Forward server->client until the budget runs out, then cut
			// both sides: whatever replies were in flight are lost.
			buf := make([]byte, 256)
			n := 0
			for n < p.limit {
				m, err := s.Read(buf)
				if m > 0 {
					if _, werr := c.Write(buf[:m]); werr != nil {
						break
					}
					n += m
				}
				if err != nil {
					c.Close()
					return
				}
			}
			c.Close()
			s.Close()
		}()
	}
}

// TestResilientSurvivesTornConnections replays a model-checked stream
// through a proxy that tears the connection several times mid-run: the
// resilient client reconnects, replays its unacknowledged tail, and
// finishes the whole stream; the recovered device state must satisfy
// the differential model with replay slack — no acknowledged write
// lost, replayed ambiguity legal.
func TestResilientSurvivesTornConnections(t *testing.T) {
	const sectors = 512
	dev, err := nand.NewDevice(func() nand.Config {
		c := nand.DefaultConfig()
		c.Geometry = ftltest.TinyGeometry()
		return c
	}(), sim.NewClock(0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(dev, core.DefaultConfig(sectors))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Stacks:           []server.ShardStack{{Device: dev, FTL: f, LogicalSectors: sectors}},
		WatchdogInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}

	proxy := newTearProxy(t, srv.Addr(), 4, 600)
	c, err := server.DialTimeout(proxy.addr(), "default", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stream := mixedStream(t, sectors, int(c.Welcome.PageSectors), 400, 21)
	// Trims are excluded: the model's replay slack covers ambiguous
	// writes, not ambiguous trims.
	reqs := stream[:0:0]
	for _, r := range stream {
		if r.Op != workload.OpTrim {
			reqs = append(reqs, r)
		}
	}

	m := ftltest.NewModel(sectors)
	i := 0
	cr, err := c.RunResilient(func() (workload.Request, bool) {
		if i >= len(reqs) {
			return workload.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}, 1, server.RetryPolicy{
		RequestTimeout: 2 * time.Second,
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
	for lsn := int64(0); lsn < sectors; lsn++ {
		v := guard.VersionOf(lsn)
		if !m.Acceptable(lsn, v) {
			t.Fatalf("sector %d: version %d outside acceptable %s", lsn, v, m.Describe(lsn))
		}
	}
}

// TestResilientRetryBackoff starves admission behind a wedged engine:
// the resilient client's read comes back RETRYABLE, it backs off and
// retries, and once the stall releases the retry succeeds.
func TestResilientRetryBackoff(t *testing.T) {
	srv, stall := stallServer(t, server.Config{
		MaxInflight:      1,
		AdmitTimeout:     30 * time.Millisecond,
		WatchdogInterval: -1,
	})

	c1, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	stall.Arm()
	cmd, err := wire.CmdOf(1, workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteCmd(conn(c1), cmd); err != nil {
		t.Fatal(err)
	}
	<-stall.Stalled()

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
	cr, err := c2.RunResilient(func() (workload.Request, bool) {
		if i >= len(reqs) {
			return workload.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}, 1, server.RetryPolicy{
		BaseBackoff: 20 * time.Millisecond,
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
