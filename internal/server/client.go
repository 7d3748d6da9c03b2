package server

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"time"

	"espftl/internal/metrics"
	"espftl/internal/sim"
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
	// addr and ns are remembered so Run can reconnect.
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
	// re-dials mid-run (both zero under the zero RetryPolicy).
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

// RetryPolicy parameterizes Run's degraded-mode handling. The zero policy
// fails fast: no deadline, the first reply is final, and a torn connection
// fails the run.
type RetryPolicy struct {
	// ConnectTimeout bounds each reconnect dial+handshake (default 2s).
	ConnectTimeout time.Duration
	// RequestTimeout is the per-request deadline: a request whose reply
	// has not arrived within it declares the connection suspect and
	// triggers a reconnect. 0 sets no deadline.
	RequestTimeout time.Duration
	// MaxAttempts bounds how often one request is sent while its replies
	// come back RETRYABLE; the last reply is delivered as final. 0 or 1
	// delivers the first reply. Retries and reconnects back off from
	// 10ms, doubling per attempt up to 1s, with seeded jitter.
	MaxAttempts int
	// MaxReconnects bounds re-dials across the whole run; exhausting it
	// (immediately, at 0) fails the run with the pending requests
	// unresolved.
	MaxReconnects int
	// Seed drives the jitter RNG: same seed, same backoff schedule.
	Seed uint64
	// OnReplay observes every request about to be resent after a
	// reconnect — a request that was on the wire, unacknowledged, and
	// may or may not have been applied. Differential checkers use it to
	// widen the reference model (Model.MaybeWrite) before the replay.
	OnReplay func(req workload.Request)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.ConnectTimeout == 0 {
		p.ConnectTimeout = 2 * time.Second
	}
	return p
}

// RetryPolicy's exponential backoff starts at baseBackoff and doubles per
// attempt up to maxBackoff.
const (
	baseBackoff = 10 * time.Millisecond
	maxBackoff  = time.Second
)

// backoff returns the jittered exponential delay for the given attempt
// (1-based): full jitter over [d/2, d] so synchronized clients spread.
func backoff(rng *sim.RNG, attempt int) time.Duration {
	d := baseBackoff << uint(attempt-1)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// pend is one in-flight or requeued request of a run. Runs keep pends by
// value, so the steady state allocates nothing per request.
type pend struct {
	tag       uint64
	req       workload.Request
	sent      time.Time
	attempts  int
	notBefore time.Time // backoff gate for requeued requests
}

// Run drives requests from next at the given queue depth until next
// returns false and every request has its final reply. policy sets how
// degraded modes are survived: RETRYABLE replies are retried with
// jittered exponential backoff, a request outliving its deadline or a
// torn connection re-dials and replays every outstanding request, oldest
// tag first. The zero policy does none of this.
//
// Replay safety: a reply is the only acknowledgment, so anything still
// pending is by definition unacknowledged — reads and flushes replay
// trivially, and unacked writes/trims are the client's to resend (the
// at-least-once contract; OnReplay lets a checker account for the
// ambiguity). An acknowledged request is never resent.
//
// The loop is single-goroutine: deadlines come from read timeouts, not a
// reader goroutine, so a reply and a retransmission can never race.
// onReply, when non-nil, observes each final reply in arrival order on
// the caller's goroutine; the Reply's Rep.Payload aliases the client's
// reusable decode buffer and is valid only during the callback — a
// callback that retains it must copy. Requests the server cannot serve
// live (ADVANCE) must be filtered by the caller.
func (c *Client) Run(next func() (workload.Request, bool), depth int, policy RetryPolicy, onReply func(Reply)) (*ClientReport, error) {
	if depth < 1 {
		return nil, fmt.Errorf("client: queue depth %d (want >= 1)", depth)
	}
	if max := int(c.Welcome.MaxInflight); max > 0 && depth > max {
		depth = max // respect the advertised cap
	}
	policy = policy.withDefaults()
	rng := sim.NewRNG(policy.Seed)
	rep := &ClientReport{Statuses: make(map[uint8]int64), Virt: metrics.NewHistogram(), Wall: metrics.NewHistogram()}

	var (
		pending    = make(map[uint64]pend, depth)
		sendQ      []pend // requeued (backoff/replay) before new work
		nextTag    uint64
		more       = true
		reconnects int
		armed      bool // a read deadline is set on c.conn
		buf        = make([]byte, 0, 64)
	)
	defer func() {
		if armed {
			c.conn.SetReadDeadline(time.Time{})
		}
	}()

	send := func(p pend) error {
		cmd, err := wire.CmdOf(p.tag, p.req)
		if err != nil {
			return err
		}
		p.sent = time.Now()
		pending[p.tag] = p
		if _, err := c.conn.Write(wire.AppendCmd(buf[:0], cmd)); err != nil {
			return errConnLost{err}
		}
		return nil
	}

	// reconnect re-dials after cause until a fresh connection takes the
	// replay of everything pending, oldest tag first to preserve the
	// submission order, or MaxReconnects runs out.
	reconnect := func(cause error) error {
	dial:
		for {
			if reconnects >= policy.MaxReconnects {
				return fmt.Errorf("%w (gave up after %d reconnects with %d requests unresolved)",
					cause, reconnects, len(pending))
			}
			reconnects++
			c.conn.Close()
			time.Sleep(backoff(rng, reconnects))
			nc, err := DialTimeout(c.addr, c.ns, policy.ConnectTimeout)
			if err != nil {
				continue
			}
			c.conn, c.rr, c.Welcome = nc.conn, nc.rr, nc.Welcome
			armed = false
			rep.Reconnects++
			replay := make([]pend, 0, len(pending))
			for _, p := range pending {
				replay = append(replay, p)
			}
			sort.Slice(replay, func(i, j int) bool { return replay[i].tag < replay[j].tag })
			for _, p := range replay {
				if policy.OnReplay != nil {
					policy.OnReplay(p.req)
				}
				// Each replay encoded once already: only the
				// connection can fail it.
				if cause = send(p); cause != nil {
					continue dial
				}
			}
			return nil
		}
	}

	for {
		// Fill the window: requeued work first (respecting its backoff
		// gate), then fresh requests from the stream.
		now := time.Now()
		for len(pending) < depth {
			var p pend
			if len(sendQ) > 0 {
				if sendQ[0].notBefore.After(now) {
					break
				}
				p, sendQ = sendQ[0], sendQ[1:]
			} else if more {
				r, ok := next()
				if !ok {
					more = false
					break
				}
				p = pend{tag: nextTag, req: r}
				nextTag++
			} else {
				break
			}
			if err := send(p); err != nil {
				if _, lost := err.(errConnLost); !lost {
					return rep, err
				}
				if err := reconnect(err); err != nil {
					return rep, err
				}
			}
		}
		if len(pending) == 0 {
			if len(sendQ) == 0 && !more {
				return rep, nil // drained
			}
			// Everything queued is backoff-gated: sleep the gate out.
			time.Sleep(time.Until(sendQ[0].notBefore))
			continue
		}

		// Block for one reply, bounded by the oldest pending request's
		// deadline and the earliest backoff gate (whichever wakes first).
		var expiry, deadline time.Time
		if policy.RequestTimeout > 0 {
			for _, p := range pending {
				if expiry.IsZero() || p.sent.Before(expiry) {
					expiry = p.sent
				}
			}
			expiry = expiry.Add(policy.RequestTimeout)
			deadline = expiry
		}
		if len(sendQ) > 0 && len(pending) < depth && (deadline.IsZero() || sendQ[0].notBefore.Before(deadline)) {
			deadline = sendQ[0].notBefore
		}
		if armed || !deadline.IsZero() {
			c.conn.SetReadDeadline(deadline)
			armed = !deadline.IsZero()
		}
		r, err := c.rr.Read()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && (expiry.IsZero() || time.Now().Before(expiry)) {
				continue // backoff gate opened, not a request timeout
			}
			// Request timeout or torn connection: reconnect and replay.
			if err := reconnect(errConnLost{err}); err != nil {
				return rep, err
			}
			continue
		}
		p, ok := pending[r.Tag]
		if !ok {
			return rep, fmt.Errorf("client: reply for unknown tag %d", r.Tag)
		}
		delete(pending, r.Tag)
		if wire.Retryable(r.Status) {
			p.attempts++
			if p.attempts < policy.MaxAttempts {
				rep.Retries++
				p.notBefore = time.Now().Add(backoff(rng, p.attempts))
				sendQ = append(sendQ, p)
				continue
			}
		}
		rep.record(p.req, r, p.sent, onReply)
	}
}

// errConnLost wraps a transport error that reconnecting may cure.
type errConnLost struct{ err error }

func (e errConnLost) Error() string { return "client: connection lost: " + e.err.Error() }
func (e errConnLost) Unwrap() error { return e.err }

// RunRequests replays a fixed request slice through Run under the zero
// RetryPolicy.
func (c *Client) RunRequests(reqs []workload.Request, depth int, onReply func(Reply)) (*ClientReport, error) {
	i := 0
	return c.Run(func() (workload.Request, bool) {
		if i >= len(reqs) {
			return workload.Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}, depth, RetryPolicy{}, onReply)
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
