package server

import (
	"errors"
	"sync/atomic"

	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/wire"
)

// Health is a namespace's position in the degraded-mode ladder. The
// machine only escalates on its own — healthy → degraded → read-only →
// fenced — driven by the error classes completions carry; de-escalation
// is an explicit administrative act (Server.Recover).
type Health int32

const (
	// Healthy serves everything.
	Healthy Health = iota
	// Degraded serves everything but has returned I/O errors
	// (uncorrectable reads, transient program failures); a warning
	// state surfaced in /stats and STAT.
	Degraded
	// ReadOnly sheds writes and trims with StatusReadOnly before
	// admission (the circuit breaker): the FTL's spare capacity is
	// exhausted and every write would burn an engine round-trip to
	// fail. Reads and flushes still flow.
	ReadOnly
	// Fenced sheds everything except STAT: the shard watchdog caught
	// its engine stalled, or recovery was judged impossible. Fencing is
	// what keeps one wedged shard from hanging every other connection's
	// admission budget — sibling shards' namespaces keep serving.
	Fenced
)

// String renders the health for /stats and STAT payloads.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case ReadOnly:
		return "read-only"
	case Fenced:
		return "fenced"
	}
	return "unknown"
}

// health is the lock-free per-namespace state machine. Escalation uses
// CAS so concurrent completions racing to report errors can only move
// the state up the ladder, never down; reset is a plain store reserved
// for Server.Recover.
type health struct {
	state atomic.Int32
	shed  atomic.Int64 // commands refused by the breaker
}

func (h *health) load() Health { return Health(h.state.Load()) }

// escalate raises the state to at least target, never lowering it.
func (h *health) escalate(target Health) {
	for {
		cur := h.state.Load()
		if cur >= int32(target) {
			return
		}
		if h.state.CompareAndSwap(cur, int32(target)) {
			return
		}
	}
}

// reset is the administrative de-escalation used by Server.Recover.
func (h *health) reset(to Health) { h.state.Store(int32(to)) }

// classify maps an engine completion error to the wire status a client
// sees and the health rung the namespace escalates to. A nil error is
// (StatusOK, Healthy) — which escalate() treats as a no-op.
func classify(err error) (status uint8, target Health) {
	switch {
	case err == nil:
		return wire.StatusOK, Healthy
	case errors.Is(err, errEngineStopped):
		return wire.StatusShutdown, Healthy
	case errors.Is(err, ftl.ErrPartialWrite):
		// Not a refusal: what the write changed is undefined.
		if errors.Is(err, ftl.ErrReadOnly) {
			return wire.StatusErr, ReadOnly
		}
		return wire.StatusErr, Degraded
	case errors.Is(err, ftl.ErrReadOnly):
		return wire.StatusReadOnly, ReadOnly
	case errors.Is(err, nand.ErrUncorrectable):
		return wire.StatusUncorrectable, Degraded
	default:
		return wire.StatusErr, Degraded
	}
}

// Stalled reports whether any shard's watchdog has declared its engine
// stalled.
func (s *Server) Stalled() bool {
	for _, sh := range s.shards {
		if sh.stalled.Load() {
			return true
		}
	}
	return false
}

// ShardStalled reports whether one shard's watchdog has declared its
// engine stalled.
func (s *Server) ShardStalled(i int) bool { return s.shards[i].stalled.Load() }

// Health returns the named namespace's current health, or Fenced for an
// unknown name (the safe answer for a namespace that cannot serve).
func (s *Server) Health(name string) Health {
	ns := s.lookup(name)
	if ns == nil {
		return Fenced
	}
	return ns.health.load()
}

// Recover is the administrative de-escalation path: it probes the FTLs'
// actual condition and resets the named namespace to what its devices
// can support — Healthy normally, ReadOnly when any owning shard's FTL
// reports its spare capacity is still exhausted. A namespace fenced by
// a watchdog only recovers once that shard's engine has made progress
// again (the stall resolved); recovering a namespace in front of a
// still-wedged engine would just wedge its clients anew.
func (s *Server) Recover(name string) (Health, error) {
	ns := s.lookup(name)
	if ns == nil {
		return Fenced, errUnknownNamespace(name)
	}
	for _, e := range ns.extents {
		sh := e.sh
		if !sh.stalled.Load() {
			continue
		}
		// Liveness probe: the stall is resolved once the engine's accepted
		// work drained or it has completed anything since the fence.
		// Refusing otherwise matters because the FTL probe below takes
		// the guard lock — the very lock a wedged engine is sitting on.
		if sh.accepted.Load() > sh.progress.Load() && sh.progress.Load() == sh.progressAtFence.Load() {
			return ns.health.load(), errStillStalled{shard: sh.idx}
		}
		sh.stalled.Store(false)
	}
	to := Healthy
	for _, e := range ns.extents {
		if e.sh.guard.ReadOnly() {
			to = ReadOnly
			break
		}
	}
	ns.health.reset(to)
	return to, nil
}

type errStillStalled struct{ shard int }

func (errStillStalled) Error() string {
	return "server: engine still stalled; cannot recover namespace"
}

func errUnknownNamespace(name string) error {
	return errNS(name)
}

type errNS string

func (e errNS) Error() string { return "server: unknown namespace " + string(e) }
