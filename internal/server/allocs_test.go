package server_test

import (
	"bufio"
	"testing"

	"espftl/internal/server"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// TestServeLoopAllocs pins the per-connection serve loop's steady-state
// allocation rate: one synchronous write round-trip over loopback —
// encode, socket write, server read/route/admit, engine round-trip,
// reply flush, client decode. Unlike the codec and FTL guards this
// cannot be zero: AllocsPerRun counts whole-process mallocs, and the
// round-trip crosses goroutines, the netpoller, and the scheduler. The
// ceiling is generous headroom over the handful the path costs today;
// it exists to catch a per-op allocation creeping back into the loop
// (a frame buffer, a completion record, a join), which shows up as
// dozens per op, not single digits.
func TestServeLoopAllocs(t *testing.T) {
	srv, err := server.New(server.Config{Stacks: buildStacks(t, 1, subStack)})
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

	// Speak frames directly on the client side so the measured loop has
	// no Run machinery in it — just the wire and the server.
	conn := server.RawConn(c)
	rr := wire.NewReplyReader(bufio.NewReader(conn))
	wl := c.Welcome
	span := int64(wl.Sectors) / 8 / int64(wl.PageSectors) * int64(wl.PageSectors)
	var (
		tag uint64
		buf []byte
	)
	roundTrip := func() {
		tag++
		lsn := int64(tag) * int64(wl.PageSectors) % span
		cmd, err := wire.CmdOf(tag, workload.Request{
			Op: workload.OpWrite, LSN: lsn, Sectors: int(wl.PageSectors),
		})
		if err != nil {
			t.Fatal(err)
		}
		buf = wire.AppendCmd(buf[:0], cmd)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		rep, err := rr.Read()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != wire.StatusOK {
			t.Fatalf("write failed: status %d %s", rep.Status, rep.Payload)
		}
	}
	// Warm the whole span so mapping tables, write buffers, and the
	// connection's join/frame scratch are at working size.
	for i := 0; i < 2000; i++ {
		roundTrip()
	}
	avg := testing.AllocsPerRun(1000, roundTrip)
	const ceiling = 8.0
	if avg > ceiling {
		t.Errorf("serve loop allocates %.2f objects per op, want <= %.0f", avg, ceiling)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}
