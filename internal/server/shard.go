package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// ShardStack is one shard's device stack: the NAND device, a freshly
// constructed FTL on it, and the logical space it exports. The server
// performs the mount (Recover) itself.
type ShardStack struct {
	Device         *nand.Device
	FTL            ftl.FTL
	LogicalSectors int64
}

// tickEvery is the host schedulers' maintenance cadence (one FTL tick per
// 64 host dispatches), the experiment runner's default.
const tickEvery = 64

// shard is one independent simulation world: its own NAND device, FTL,
// virtual clock, host scheduler, and — once Serve starts — its own
// engine goroutine, admission budget, and stall watchdog. Shards share
// nothing but the TCP listener in front of them; the
// one-simulation-one-goroutine invariant holds per shard.
type shard struct {
	idx     int
	dev     *nand.Device
	guard   *ftl.Guard
	sched   *host.Scheduler
	gate    *sim.Gate
	logical int64
	mounted ftl.MountReport

	// nss lists the namespaces with an extent on this shard; the
	// watchdog fences exactly these when the engine stalls.
	nss []*namespace

	// sub feeds the engine goroutine; slots is this shard's in-flight
	// admission budget.
	sub        chan host.ExtSubmission
	slots      chan struct{}
	engineDone chan struct{}
	rep        *host.Report
	engineErr  error

	// accepted counts submissions the engine goroutine has taken off the
	// channel; progress counts completions. The watchdog samples both to
	// tell a stalled engine (accepted work unfinished, progress frozen)
	// from an idle one. Admission-slot occupancy is deliberately not the
	// criterion: a reader blocked handing a fragment to a *different*
	// wedged shard holds slots here without this engine owing any work.
	accepted        atomic.Uint64
	progress        atomic.Uint64
	progressAtFence atomic.Uint64
	stalled         atomic.Bool
	watchdogStop    chan struct{}
	watchdogDone    chan struct{}

	// lastGC caches the newest GCStats snapshot so STAT can answer
	// without blocking behind a busy engine.
	lastGC atomic.Value
}

// buildShard adopts one shard's device stack: mount, optional
// preconditioning, concurrency guard, and host scheduler. No goroutines
// start here; Serve owns the lifecycle.
func buildShard(idx int, cfg Config, stack ShardStack) (*shard, error) {
	dev, f, logical := stack.Device, stack.FTL, stack.LogicalSectors
	if f == nil || dev == nil || logical == 0 {
		return nil, fmt.Errorf("server: shard %d stack requires Device, FTL and LogicalSectors", idx)
	}
	// Mount before any I/O: on a blank device this is an empty scan; on
	// a crash survivor it is the real OOB recovery of PR 3.
	mounted, err := f.Recover()
	if err != nil {
		return nil, fmt.Errorf("server: shard %d mount: %w", idx, err)
	}
	g := dev.Geometry()
	if cfg.PreconditionFrac > 0 {
		fill := int64(float64(logical)*cfg.PreconditionFrac) / int64(g.SubpagesPerPage) * int64(g.SubpagesPerPage)
		if err := experiment.Precondition(f, g.SubpagesPerPage, fill); err != nil {
			return nil, err
		}
		dev.Clock().AdvanceTo(dev.DrainTime())
	}
	arb, err := host.NewArbiter(cfg.Arbitration)
	if err != nil {
		return nil, err
	}
	guard := ftl.NewGuard(f)
	sched, err := host.New(dev, guard, host.Config{Arbiter: arb, TickEvery: tickEvery})
	if err != nil {
		return nil, err
	}
	return &shard{
		idx:     idx,
		dev:     dev,
		guard:   guard,
		sched:   sched,
		logical: logical,
		mounted: mounted,
		// The submission channel is buffered to the admission budget:
		// readers enqueue without rendezvousing with the engine, and one
		// engine wake admits up to the channel's capacity, so a burst is
		// arbitrated as one batch instead of one command per scheduler
		// round-trip. Admission slots — not the channel — bound in-flight
		// work, so the buffer can never fill with more than MaxInflight
		// submissions.
		sub:        make(chan host.ExtSubmission, cfg.MaxInflight),
		slots:      make(chan struct{}, cfg.MaxInflight),
		engineDone: make(chan struct{}),
	}, nil
}

// start launches the shard's engine goroutine (and watchdog, when
// configured). The gate anchors now: virtual time starts flowing against
// the wall clock the moment the shard can accept work.
func (sh *shard) start(cfg Config) {
	sh.gate = sim.NewGate(cfg.Speedup, sh.dev.Clock().Now())
	go func() {
		rep, err := sh.sched.RunExternal(sh.sub, sh.gate)
		sh.rep, sh.engineErr = rep, err
		close(sh.engineDone)
		// The submission channel is buffered: a reader may have enqueued
		// (or may still enqueue, racing the engineDone close) submissions
		// the dead engine will never service. Refuse them here so their
		// joins retire instead of wedging connections and the drain. On a
		// normal shutdown the channel is already closed and drained, and
		// this loop exits immediately.
		for es := range sh.sub {
			sh.refuse(es)
		}
	}()
	if cfg.WatchdogInterval > 0 {
		sh.watchdogStop = make(chan struct{})
		sh.watchdogDone = make(chan struct{})
		go sh.watchdog(cfg.WatchdogInterval, cfg.WatchdogStalls)
	}
}

// refuse completes one submission a dead engine will never service,
// carrying the typed engine-stopped error through the normal completion
// path. Cold path only: it runs after the engine goroutine has exited.
func (sh *shard) refuse(es host.ExtSubmission) {
	if es.Complete != nil {
		es.Complete.Complete(&host.Command{Req: es.Req, Err: errEngineStopped, DispatchIdx: -1})
	}
}

// inflight returns the number of commands currently holding this shard's
// admission slots.
func (sh *shard) inflight() int { return len(sh.slots) }

// stopWatchdog halts the stall watchdog before a drain: a paced tail
// must not be mistaken for a stall and fenced mid-drain.
func (sh *shard) stopWatchdog() {
	if sh.watchdogStop != nil {
		close(sh.watchdogStop)
		<-sh.watchdogDone
	}
}

// watchdog detects an engine stall on this shard: submissions the engine
// accepted but no completion progress across `stalls` consecutive
// intervals. The
// engine goroutine is the single thread that owns this shard's FTL and
// device; a submission that never completes (a wedged FTL, a deadlocked
// fault path) freezes every tenant with an extent here, with readers
// blocked in admission and no error ever surfacing. The watchdog turns
// that silent hang into an explicit, observable state: it fences this
// shard's namespaces (new commands are refused with NAMESPACE_FENCED)
// and marks the shard stalled in /stats. In-flight commands stay wedged
// — the engine thread cannot be safely killed — but no new work joins
// them, and sibling shards keep serving their own namespaces.
func (sh *shard) watchdog(interval time.Duration, stalls int) {
	defer close(sh.watchdogDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	lastProgress := sh.progress.Load()
	quiet := 0
	for {
		select {
		case <-sh.watchdogStop:
			return
		case <-sh.engineDone:
			return
		case <-t.C:
		}
		prog := sh.progress.Load()
		if prog != lastProgress || sh.accepted.Load() == prog {
			lastProgress = prog
			quiet = 0
			continue
		}
		quiet++
		if quiet < stalls {
			continue
		}
		if sh.stalled.CompareAndSwap(false, true) {
			sh.progressAtFence.Store(prog)
			for _, ns := range sh.nss {
				ns.health.escalate(Fenced)
			}
		}
	}
}

// gcSnapshot reads the shard FTL's collector counters between engine
// commands. STAT must never block behind a busy or stalled engine, so a
// contended guard lock falls back to the last snapshot taken (zero
// before any).
func (sh *shard) gcSnapshot() GCStats {
	var out GCStats
	ok := sh.guard.TryDo(func() {
		st := sh.guard.Unwrap().Stats()
		out = GCStats{
			Policy:      st.GCPolicy,
			Steps:       st.GCSteps,
			PagesCopied: st.GCPagesCopied,
			Preemptions: st.GCPreemptions,
		}
	})
	if ok {
		sh.lastGC.Store(out)
		return out
	}
	if v := sh.lastGC.Load(); v != nil {
		return v.(GCStats)
	}
	return GCStats{}
}
