package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"espftl/internal/metrics"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// Client is one namespace attachment: it dials, handshakes, and drives
// tagged commands at a configurable queue depth. It is the engine of
// cmd/espclient and of the loopback tests. A Client is not safe for
// concurrent use; open one per goroutine.
type Client struct {
	conn net.Conn
	// rr decodes the reply stream into a connection-lifetime buffer, so
	// the steady-state read path neither allocates nor copies payloads.
	rr *wire.ReplyReader
	// addr and ns are remembered so RunResilient can reconnect.
	addr, ns string
	// Welcome is the server's handshake reply: namespace geometry and
	// the advertised in-flight cap.
	Welcome wire.Welcome
}

// Dial connects to an espserved endpoint and attaches to the named
// namespace, blocking as long as the OS lets it.
func Dial(addr, ns string) (*Client, error) {
	return DialTimeout(addr, ns, 0)
}

// DialTimeout is Dial with a bound covering both the TCP connect and
// the handshake round-trip; 0 means no bound. A dead or blackholed
// address fails within the timeout instead of hanging.
func DialTimeout(addr, ns string, timeout time.Duration) (*Client, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(deadline) // zero deadline = none
	if err := wire.WriteHello(conn, wire.Hello{NS: ns}); err != nil {
		conn.Close()
		return nil, err
	}
	wl, err := wire.ReadWelcome(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if wl.Status != wire.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("server refused %q: %s", ns, wl.Err)
	}
	conn.SetDeadline(time.Time{})
	// The buffered reader wraps the socket only after the handshake, so
	// it can never have swallowed handshake bytes.
	return &Client{
		conn: conn,
		rr:   wire.NewReplyReader(bufio.NewReader(conn)),
		addr: addr, ns: ns,
		Welcome: wl,
	}, nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// ClientReport aggregates one run's client-side view.
type ClientReport struct {
	// Ops counts completed commands; Errors those that returned a
	// non-OK final status other than SHUTTING_DOWN; Rejected those
	// refused with StatusShutdown.
	Ops, Errors, Rejected int64
	// Retries counts RETRYABLE requeues; Reconnects successful
	// re-dials mid-run (both zero outside RunResilient).
	Retries, Reconnects int64
	// Statuses histograms every final reply status by wire code.
	Statuses map[uint8]int64
	// Virt is the distribution of server-reported virtual service
	// latencies; Wall the wall-clock round-trip times this client
	// observed.
	Virt, Wall *metrics.Histogram
}

// record accounts one final reply to a request sent at sent and hands it
// to onReply (when non-nil).
func (r *ClientReport) record(req workload.Request, rep wire.Reply, sent time.Time, onReply func(Reply)) {
	r.Ops++
	if r.Statuses == nil {
		r.Statuses = make(map[uint8]int64)
	}
	r.Statuses[rep.Status]++
	switch rep.Status {
	case wire.StatusOK:
	case wire.StatusShutdown:
		r.Rejected++
	default:
		r.Errors++
	}
	r.Wall.Record(time.Since(sent))
	r.Virt.Record(time.Duration(rep.LatencyNS))
	if onReply != nil {
		onReply(Reply{Req: req, Rep: rep})
	}
}

// Reply pairs a completed request with its wire reply, for the Run
// callback.
type Reply struct {
	Req workload.Request
	Rep wire.Reply
}

// Run drives requests from next at the given queue depth until next
// returns false, then waits for every outstanding reply. onReply, when
// non-nil, observes each completion in arrival order on the reply-reader
// goroutine; the Reply's Rep.Payload aliases the client's reusable
// decode buffer and is valid only during the callback — a callback that
// retains it must copy. Requests the server cannot serve live (ADVANCE)
// must be filtered by the caller.
func (c *Client) Run(next func() (workload.Request, bool), depth int, onReply func(Reply)) (*ClientReport, error) {
	if depth < 1 {
		return nil, fmt.Errorf("client: queue depth %d (want >= 1)", depth)
	}
	if max := int(c.Welcome.MaxInflight); max > 0 && depth > max {
		depth = max // respect the advertised cap
	}
	rep := &ClientReport{Virt: metrics.NewHistogram(), Wall: metrics.NewHistogram()}

	type pend struct {
		req  workload.Request
		sent time.Time
	}
	var (
		mu      sync.Mutex
		pending = make(map[uint64]pend, depth)
	)
	window := make(chan struct{}, depth)
	readerErr := make(chan error, 1)
	done := make(chan struct{})
	// The reader must not outlive this run: a lingering reader would
	// swallow the reply of a later Stat or Run on the same connection.
	// Interrupt it with an immediate read deadline on every exit path.
	defer func() {
		c.conn.SetReadDeadline(time.Now())
		<-done
		c.conn.SetReadDeadline(time.Time{})
	}()
	go func() {
		defer close(done)
		for {
			r, err := c.rr.Read()
			if err != nil {
				readerErr <- err
				return
			}
			mu.Lock()
			p, ok := pending[r.Tag]
			delete(pending, r.Tag)
			mu.Unlock()
			if !ok {
				readerErr <- fmt.Errorf("client: reply for unknown tag %d", r.Tag)
				return
			}
			rep.record(p.req, r, p.sent, onReply)
			<-window
		}
	}()

	var tag uint64
	var sendErr error
	buf := make([]byte, 0, 64)
	for {
		r, ok := next()
		if !ok {
			break
		}
		cmd, err := wire.CmdOf(tag, r)
		if err != nil {
			sendErr = err
			break
		}
		select {
		case window <- struct{}{}:
		case err := <-readerErr:
			return rep, fmt.Errorf("client: reply stream: %w", err)
		}
		mu.Lock()
		pending[tag] = pend{req: r, sent: time.Now()}
		mu.Unlock()
		if _, err := c.conn.Write(wire.AppendCmd(buf[:0], cmd)); err != nil {
			sendErr = fmt.Errorf("client: sending command %d: %w", tag, err)
			break
		}
		tag++
	}
	// Drain: reclaim the whole window so every outstanding reply is in.
	for i := 0; i < depth; i++ {
		select {
		case window <- struct{}{}:
		case err := <-readerErr:
			return rep, fmt.Errorf("client: reply stream: %w", err)
		}
	}
	if sendErr != nil {
		return rep, sendErr
	}
	return rep, nil
}

// RunRequests replays a fixed request slice through Run.
func (c *Client) RunRequests(reqs []workload.Request, depth int, onReply func(Reply)) (*ClientReport, error) {
	i := 0
	return c.Run(func() (workload.Request, bool) {
		if i >= len(reqs) {
			return workload.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}, depth, onReply)
}

// Stat asks the server for the namespace's JSON snapshot. It must not
// be called while a Run is in progress (the reply stream is single-
// reader).
func (c *Client) Stat() ([]byte, error) {
	if err := wire.WriteCmd(c.conn, wire.Cmd{Op: wire.OpStat, Tag: ^uint64(0)}); err != nil {
		return nil, err
	}
	r, err := c.rr.Read()
	if err != nil {
		return nil, err
	}
	if r.Status != wire.StatusOK {
		return nil, fmt.Errorf("client: STAT failed: %s", r.Payload)
	}
	// The decoder's buffer is reused by the next read; the snapshot the
	// caller keeps must be its own.
	return append([]byte(nil), r.Payload...), nil
}
