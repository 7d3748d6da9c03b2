package server

import (
	"fmt"
	"net"
	"sort"
	"time"

	"espftl/internal/metrics"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// RetryPolicy parameterizes RunResilient. The zero value of any field
// takes the documented default.
type RetryPolicy struct {
	// ConnectTimeout bounds each reconnect dial+handshake (default 2s).
	ConnectTimeout time.Duration
	// RequestTimeout is the per-request deadline: a request whose reply
	// has not arrived within it declares the connection suspect and
	// triggers a reconnect (default 10s).
	RequestTimeout time.Duration
	// MaxAttempts bounds how often one request is retried after
	// RETRYABLE before its last status is delivered as final
	// (default 8).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff; it doubles per attempt
	// up to MaxBackoff, with seeded jitter (defaults 10ms, 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxReconnects bounds re-dials across the whole run (default 5);
	// exhausting it fails the run with the pending requests unresolved.
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
	if p.RequestTimeout == 0 {
		p.RequestTimeout = 10 * time.Second
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = time.Second
	}
	if p.MaxReconnects == 0 {
		p.MaxReconnects = 5
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// backoff returns the jittered exponential delay for the given attempt
// (1-based): full jitter over [d/2, d] so synchronized clients spread.
func (p RetryPolicy) backoff(rng *sim.RNG, attempt int) time.Duration {
	d := p.BaseBackoff << uint(attempt-1)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// rpend is one in-flight or queued request of a resilient run.
type rpend struct {
	tag       uint64
	req       workload.Request
	sent      time.Time
	attempts  int
	notBefore time.Time // backoff gate for requeued requests
}

// RunResilient drives requests from next like Run, but survives the
// degraded modes Run treats as fatal. It retries RETRYABLE replies with
// jittered exponential backoff, applies per-request deadlines, and on a
// torn or timed-out connection re-dials (bounded by MaxReconnects) and
// replays every outstanding request, resuming the stream mid-flight.
//
// Replay safety: a reply is the only acknowledgment, so anything still
// pending is by definition unacknowledged — reads and flushes replay
// trivially, and unacked writes/trims are the client's to resend (the
// at-least-once contract; OnReplay lets a checker account for the
// ambiguity). An acknowledged request is never resent.
//
// The loop is single-goroutine: deadlines come from read timeouts, not
// a reader goroutine, so a reply and a retransmission can never race.
// Replies are read through the client's decoder, as in Run, so onReply
// sees Rep.Payload under Run's contract: valid only during the callback.
func (c *Client) RunResilient(next func() (workload.Request, bool), depth int, policy RetryPolicy, onReply func(Reply)) (*ClientReport, error) {
	if depth < 1 {
		return nil, fmt.Errorf("client: queue depth %d (want >= 1)", depth)
	}
	if max := int(c.Welcome.MaxInflight); max > 0 && depth > max {
		depth = max
	}
	policy = policy.withDefaults()
	rng := sim.NewRNG(policy.Seed)
	rep := &ClientReport{Virt: metrics.NewHistogram(), Wall: metrics.NewHistogram()}

	var (
		pending    = make(map[uint64]*rpend, depth)
		sendQ      []*rpend // requeued (backoff/replay) before new work
		nextTag    uint64
		more       = true
		reconnects int
		buf        = make([]byte, 0, 64)
	)
	defer c.conn.SetReadDeadline(time.Time{})

	send := func(p *rpend) error {
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

	// reconnect re-dials and replays everything pending, oldest tag
	// first, preserving the original submission order.
	reconnect := func() error {
		c.conn.Close()
		for {
			if reconnects >= policy.MaxReconnects {
				return fmt.Errorf("client: gave up after %d reconnects with %d requests unresolved",
					reconnects, len(pending))
			}
			reconnects++
			time.Sleep(policy.backoff(rng, reconnects))
			nc, err := DialTimeout(c.addr, c.ns, policy.ConnectTimeout)
			if err != nil {
				continue
			}
			c.conn = nc.conn
			c.rr = nc.rr
			c.Welcome = nc.Welcome
			rep.Reconnects++
			break
		}
		replay := make([]*rpend, 0, len(pending))
		for _, p := range pending {
			replay = append(replay, p)
		}
		sort.Slice(replay, func(i, j int) bool { return replay[i].tag < replay[j].tag })
		for _, p := range replay {
			delete(pending, p.tag)
			if policy.OnReplay != nil {
				policy.OnReplay(p.req)
			}
			if err := send(p); err != nil {
				if _, lost := err.(errConnLost); lost {
					return errConnLost{err} // next loop iteration reconnects again
				}
				return err
			}
		}
		return nil
	}

	for {
		// Fill the window: requeued work first (respecting its backoff
		// gate), then fresh requests from the stream.
		now := time.Now()
		for len(pending) < depth {
			var p *rpend
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
				p = &rpend{tag: nextTag, req: r}
				nextTag++
			} else {
				break
			}
			if err := send(p); err != nil {
				if _, lost := err.(errConnLost); lost {
					if rerr := reconnect(); rerr != nil {
						if _, lost := rerr.(errConnLost); lost {
							continue
						}
						return rep, rerr
					}
					continue
				}
				return rep, err
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
		oldest := time.Time{}
		for _, p := range pending {
			if oldest.IsZero() || p.sent.Before(oldest) {
				oldest = p.sent
			}
		}
		deadline := oldest.Add(policy.RequestTimeout)
		if len(sendQ) > 0 && len(pending) < depth && sendQ[0].notBefore.Before(deadline) {
			deadline = sendQ[0].notBefore
		}
		c.conn.SetReadDeadline(deadline)
		r, err := c.rr.Read()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && time.Now().Before(oldest.Add(policy.RequestTimeout)) {
				continue // backoff gate opened, not a request timeout
			}
			// Request timeout or torn connection: reconnect and replay.
			if rerr := reconnect(); rerr != nil {
				if _, lost := rerr.(errConnLost); lost {
					continue
				}
				return rep, rerr
			}
			continue
		}
		p, ok := pending[r.Tag]
		if !ok {
			// A late reply for a request already resolved (for example a
			// duplicate surfaced around a reconnect): ignorable noise.
			continue
		}
		delete(pending, r.Tag)
		if wire.Retryable(r.Status) {
			p.attempts++
			if p.attempts >= policy.MaxAttempts {
				rep.record(p.req, r, p.sent, onReply)
				continue
			}
			rep.Retries++
			p.notBefore = time.Now().Add(policy.backoff(rng, p.attempts))
			sendQ = append(sendQ, p)
			continue
		}
		rep.record(p.req, r, p.sent, onReply)
	}
}

// errConnLost wraps a transport error that reconnecting may cure.
type errConnLost struct{ err error }

func (e errConnLost) Error() string { return "client: connection lost: " + e.err.Error() }
func (e errConnLost) Unwrap() error { return e.err }
