// Package chaos runs scripted, seed-deterministic degraded-mode
// campaigns against a live network server: it composes the PR-1 fault
// injector (read disturbs, program/erase failures), grown-bad-block
// storms, engine stalls, torn client connections, dead clients, and
// sudden power-off into one run, and checks the system-level invariants
// after each phase — no acknowledged write is ever lost (the PR-3
// differential model, widened with replay slack for ambiguous resends),
// every client-visible error carries a typed wire status, a fenced
// namespace returns to healthy after Recover, and a crashed device
// remounts into a servable state.
//
// The campaign content is deterministic per seed (workload streams and
// injected faults both draw from seeded RNGs); the timing of torn
// connections against the reply stream is not, which is exactly why the
// differential model carries replay slack instead of expecting one
// golden outcome.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"espftl/internal/core"
	"espftl/internal/ecc"
	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/ftltest"
	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// Config seeds one campaign.
type Config struct {
	// Seed drives the workload streams and the fault injectors.
	Seed uint64
	// Ops is the model-checked operation count of the storm phase
	// (default 400).
	Ops int
	// Shards is the fleet size (default 1). Shard 0 takes the storm,
	// wedge and bad-block phases; from two shards on, a cold tenant
	// pinned to shard 1 and a wide tenant striped across every shard
	// serve throughout: cold must not notice, wide sees only what shard 0
	// answers its own data tenant.
	Shards int
	// Logf, when non-nil, narrates the campaign (wire to t.Logf).
	Logf func(format string, args ...interface{})
}

// Result summarizes a campaign.
type Result struct {
	// StormOps is the number of requests the model client completed
	// through the storm+torn phase; Reconnects and Retries its
	// resilience work.
	StormOps   int64
	Reconnects int64
	Retries    int64
	// Statuses aggregates every final status any campaign client saw,
	// by wire code.
	Statuses map[uint8]int64
	// ShedReadOnly is the breaker-shed count after the bad-block storm.
	ShedReadOnly int64
	// ColdOps and WideOps count the sibling tenants' completed requests
	// (zero on one shard); ColdP99 is the cold tenant's wall-clock p99
	// across the whole campaign, wedge and read-only windows included.
	ColdOps, WideOps int64
	ColdP99          time.Duration
	// MountReport is the post-SPO recovery mount.
	MountReport ftl.MountReport
}

func (c Config) withDefaults() Config {
	if c.Ops == 0 {
		c.Ops = 400
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

const (
	sectors  = 512     // logical sectors of each campaign device
	dataNS   = "data"  // the model-checked tenant, pinned to shard 0
	noiseNS  = "noise" // torn and dead clients, pinned to shard 0
	coldNS   = "cold"  // pinned to shard 1, must see nothing but OK
	wideNS   = "wide"  // striped across every shard
	churnCap = 30000   // bad-block churn bound before declaring failure
	loopSize = 200     // requests per sibling-tenant batch
)

func geometry() nand.Geometry {
	return nand.Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		BlocksPerChip:   8,
		PagesPerBlock:   8,
		SubpagesPerPage: 4,
		SubpageBytes:    4096,
	}
}

// buildStack assembles a fault-injected device and a StallFTL-wrapped
// subFTL — the paper's FTL, and the one with the most moving parts to
// stress.
func buildStack(prof fault.Profile) (*nand.Device, *fault.Injector, *ftltest.StallFTL, error) {
	inj, err := fault.NewInjector(prof)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := nand.DefaultConfig()
	cfg.Geometry = geometry()
	cfg.Fault = inj
	rm := ecc.DefaultRetry
	cfg.Retry = &rm
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := core.New(dev, core.DefaultConfig(sectors))
	if err != nil {
		return nil, nil, nil, err
	}
	return dev, inj, ftltest.NewStallFTL(f), nil
}

// stream builds a deterministic model-checked request stream: mixed reads
// and writes (some async), no trims (replay slack covers ambiguous writes,
// not ambiguous trims), a periodic flush, and a final flush.
func stream(nsSectors int64, pageSectors, n int, seed uint64) ([]workload.Request, error) {
	gen, err := workload.NewSynthetic(workload.Profile{
		Name:       "chaos",
		SmallRatio: 0.6,
		SyncRatio:  0.4,
		ReadRatio:  0.3,
		SmallSizes: []int{1, 2, 3},
		LargeSizes: []int{4, 8},
		Zipf:       0.9,
	}, nsSectors, pageSectors, seed)
	if err != nil {
		return nil, err
	}
	reqs := make([]workload.Request, 0, n)
	for i := 0; i < n; i++ {
		if i%89 == 88 || i == n-1 {
			reqs = append(reqs, workload.Request{Op: workload.OpFlush})
			continue
		}
		reqs = append(reqs, gen.Next())
	}
	return reqs, nil
}

// Run executes one campaign and returns its summary, or the first
// invariant violation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("chaos: Shards must be positive, got %d", cfg.Shards)
	}
	res := &Result{Statuses: make(map[uint8]int64)}

	// ---- Campaign fleet: probabilistic storm profile on shard 0 ------
	// Every stack is StallFTL-wrapped so any could be wedged; the
	// siblings' fault profiles are quiet (seed only): what they check is
	// that shard 0's chaos stays on shard 0.
	stacks := make([]server.ShardStack, cfg.Shards)
	var (
		inj   *fault.Injector
		stall *ftltest.StallFTL
	)
	for i := range stacks {
		prof := fault.Profile{Seed: cfg.Seed + uint64(i)}
		if i == 0 {
			prof = fault.Profile{
				Seed:            cfg.Seed,
				ReadDisturbProb: 2e-3,
				ReadDisturbBER:  1.6,
				ProgramFailProb: 5e-4,
				EraseFailProb:   1e-4,
				WearSlope:       1.0,
				RatedPE:         1000,
			}
		}
		dev, in, st, err := buildStack(prof)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			inj, stall = in, st
		}
		stacks[i] = server.ShardStack{Device: dev, FTL: st, LogicalSectors: sectors}
	}
	specs := []server.NamespaceSpec{{Name: dataNS, Placement: "0"}, {Name: noiseNS, Placement: "0"}}
	onShard0 := []string{dataNS, noiseNS}
	if cfg.Shards > 1 {
		specs = append(specs, server.NamespaceSpec{Name: coldNS, Placement: "1"}, server.NamespaceSpec{Name: wideNS, Placement: "*"})
		onShard0 = append(onShard0, wideNS)
	}
	srv, err := server.New(server.Config{
		Stacks:           stacks,
		Namespaces:       specs,
		WatchdogInterval: 15 * time.Millisecond,
		WatchdogStalls:   4,
		WriteTimeout:     250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Serve(); err != nil {
		return nil, err
	}

	// The model mirrors the data namespace; the noise namespace hosts
	// torn and dead clients whose only contract is typed statuses and
	// reclaimed slots.
	proxy, err := NewTearProxy(srv.Addr(), 4, 700)
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	c, err := server.DialTimeout(proxy.Addr(), dataNS, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	nsSectors := int64(c.Welcome.Sectors)
	ps := int(c.Welcome.PageSectors)
	m := ftltest.NewModel(nsSectors)
	tenants := []tenant{{dataNS, nsSectors, m, c}}

	// The sibling tenants run batch loops until the campaign releases
	// them, so both are live through every phase on shard 0. cold must
	// see nothing but OK — shard 0's fence and read-only breaker are
	// shard-scoped; wide is allowed exactly shard 0's typed refusals,
	// which a striped namespace shares whole.
	stop := make(chan struct{})
	var (
		coldLoop, wideLoop *loopingTenant
		whileWedged        func() error
	)
	if cfg.Shards > 1 {
		cold, err := attach(srv.Addr(), coldNS)
		if err != nil {
			return nil, err
		}
		defer cold.c.Close()
		wide, err := attach(srv.Addr(), wideNS)
		if err != nil {
			return nil, err
		}
		defer wide.c.Close()
		tenants = append(tenants, cold, wide)
		coldLoop = loopTenant(cold, stop, func(batch uint64) ([]workload.Request, error) {
			return stream(cold.sectors, ps, loopSize, cfg.Seed^0x636f6c64+batch)
		}, wire.StatusOK)
		wideLoop = loopTenant(wide, stop, func(batch uint64) ([]workload.Request, error) {
			reqs, err := stream(wide.sectors, ps, loopSize, cfg.Seed^0x77696465+batch)
			return offShard0(reqs, ps, cfg.Shards), err
		}, wire.StatusOK, wire.StatusFenced, wire.StatusReadOnly)
		whileWedged = func() error { return siblingsServe(srv, cfg.Shards, res.Statuses) }
	}

	// ---- Phase 1: fault storm + torn connections + noise clients -----
	cfg.Logf("phase 1: storm of %d ops through tearing proxy, noise clients alongside", cfg.Ops)
	noiseDone := runNoise(srv.Addr(), cfg.Seed^0x6e6f697365)
	reqs, err := stream(nsSectors, ps, cfg.Ops, cfg.Seed)
	if err != nil {
		return nil, err
	}
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
		MaxReconnects:  64,
		Seed:           cfg.Seed ^ 0x7265747279,
		OnReplay: func(r workload.Request) {
			if r.Op == workload.OpWrite {
				m.MaybeWrite(r.LSN, r.Sectors)
			}
		},
	}, mirror(m))
	if err != nil {
		return nil, fmt.Errorf("chaos: storm phase: %w", err)
	}
	<-noiseDone
	res.StormOps, res.Reconnects, res.Retries = cr.Ops, cr.Reconnects, cr.Retries
	addStatuses(res.Statuses, cr.Statuses)
	if cr.Ops != int64(len(reqs)) {
		return nil, fmt.Errorf("chaos: storm phase resolved %d of %d requests", cr.Ops, len(reqs))
	}

	// ---- Phase 2: engine stall -> watchdog fence -> recover ----------
	cfg.Logf("phase 2: wedging shard 0; expecting a shard-scoped fence, then recovery of %v", onShard0)
	if err := wedge(srv, stall, 0, c, onShard0, m, res.Statuses, whileWedged); err != nil {
		return nil, fmt.Errorf("chaos: stall phase: %w", err)
	}
	// Recovered means rejoined: the data tenant's STAT snapshot —
	// aggregated over its owning shard — is healthy.
	st, err := stat(c)
	if err != nil {
		return nil, fmt.Errorf("chaos: post-recovery STAT: %w", err)
	}
	if st.Health != "healthy" {
		return nil, fmt.Errorf("chaos: recovered data namespace STATs %q, want healthy", st.Health)
	}
	if len(st.Shards) != 1 || st.Shards[0] != 0 {
		return nil, fmt.Errorf("chaos: data namespace STATs shards %v, want [0]", st.Shards)
	}

	// ---- Phase 3: grown-bad-block storm -> read-only breaker ---------
	cfg.Logf("phase 3: erase-failure storm until the capacity floor trips")
	if err := badBlockStorm(srv.ShardFTL(0), inj, c, m, ps, nsSectors, res); err != nil {
		return nil, fmt.Errorf("chaos: bad-block phase: %w", err)
	}

	// ---- Wind down the sibling loops and check their invariants ------
	if cfg.Shards > 1 {
		close(stop)
		for _, lt := range []*loopingTenant{coldLoop, wideLoop} {
			if err := <-lt.done; err != nil {
				return nil, fmt.Errorf("chaos: %w", err)
			}
			addStatuses(res.Statuses, lt.statuses)
		}
		res.ColdOps, res.WideOps = coldLoop.ops, wideLoop.ops
		res.ColdP99 = coldLoop.wall.Summary().P99
		// The sibling's latency must be bounded by ordinary service time,
		// not by the wedge: a cross-shard dependency would park cold
		// commands behind the stall for the whole fence window.
		if res.ColdP99 > 2*time.Second {
			return nil, fmt.Errorf("chaos: cold tenant p99 %v during shard 0's wedge", res.ColdP99)
		}
	}

	// ---- Drain and differential check on every tenant -----------------
	cfg.Logf("drain: shutting down and checking the models of %d tenants", len(tenants))
	if err := drainAndCheck(srv, res.Statuses, tenants...); err != nil {
		return nil, err
	}

	// ---- Phase 4: sudden power-off on a fresh stack ------------------
	cfg.Logf("phase 4: SPO cut mid-stream, remount, verify, re-serve")
	mount, err := spoPhase(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: SPO phase: %w", err)
	}
	res.MountReport = mount
	return res, nil
}

// siblingsServe is the in-fence check of a multi-shard campaign: shard 0's
// fence is shard-scoped, so the siblings are not stalled and the cold
// tenant on shard 1 stays healthy and serves.
func siblingsServe(srv *server.Server, shards int, statuses map[uint8]int64) error {
	for s := 1; s < shards; s++ {
		if srv.ShardStalled(s) {
			return fmt.Errorf("sibling shard %d reported stalled during shard 0's wedge", s)
		}
	}
	if h := srv.Health(coldNS); h != server.Healthy {
		return fmt.Errorf("cold namespace %v during shard 0's wedge, want healthy", h)
	}
	st, err := probe(srv.Addr(), coldNS, workload.Request{Op: workload.OpRead, LSN: 0, Sectors: 4})
	if err != nil {
		return fmt.Errorf("sibling probe during wedge: %w", err)
	}
	statuses[st]++
	if st != wire.StatusOK {
		return fmt.Errorf("cold read during shard 0's wedge answered %s, want OK", wire.StatusName(st))
	}
	return nil
}

// mirror returns the reply callback that keeps a model in step with what
// its client was told: an acknowledged write or flush is applied; a refused
// or errored write is an unacknowledged attempt whose reach is undefined
// (it may have landed, it may have unmapped the old copy).
func mirror(m *ftltest.Model) func(server.Reply) {
	return func(r server.Reply) {
		if r.Rep.Status != wire.StatusOK {
			if r.Req.Op == workload.OpWrite {
				m.FailedWrite(r.Req.LSN, r.Req.Sectors)
			}
			return
		}
		switch r.Req.Op {
		case workload.OpWrite:
			m.Write(r.Req.LSN, r.Req.Sectors, r.Req.Sync)
		case workload.OpFlush:
			m.Flush()
		}
	}
}

// wedged is the write the campaign wedges an engine with and, once the
// namespace has recovered, write again and read back: after wedge returns,
// the model holds these sectors as acknowledged.
var wedged = workload.Request{Op: workload.OpWrite, LSN: 0, Sectors: 4}

// wedge runs one engine-stall arc on a shard: arm the stall, wedge the
// engine with a write on a raw connection (the model client c stays quiet;
// the write's eventual reply is mirrored), wait for the watchdog to fence
// the shard, check the fence is a typed client-visible status and that
// recovery is refused while wedged, then release, recover every fenced
// namespace to healthy and require that c is served again. nss are the
// namespaces owning an extent on the shard; nss[0] is c's and m's.
// whileWedged, when non-nil, runs inside the fence window.
func wedge(srv *server.Server, stall *ftltest.StallFTL, shard int, c *server.Client, nss []string,
	m *ftltest.Model, statuses map[uint8]int64, whileWedged func() error) error {
	stall.Arm()
	wc, err := rawDial(srv.Addr(), nss[0], 2*time.Second)
	if err != nil {
		return err
	}
	defer wc.close()
	if err := wc.send(wedged); err != nil {
		return err
	}
	<-stall.Stalled()

	if err := waitFor(5*time.Second, func() bool {
		if !srv.ShardStalled(shard) {
			return false
		}
		for _, ns := range nss {
			if srv.Health(ns) != server.Fenced {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("watchdog never fenced shard %d's namespaces: %w", shard, err)
	}

	// The fence must be a typed, client-visible condition.
	st, err := probe(srv.Addr(), nss[0], workload.Request{Op: workload.OpRead, LSN: 0, Sectors: 4})
	if err != nil {
		return fmt.Errorf("fence probe: %w", err)
	}
	statuses[st]++
	if st != wire.StatusFenced {
		return fmt.Errorf("fenced namespace %s answered %s, want NAMESPACE_FENCED", nss[0], wire.StatusName(st))
	}
	if whileWedged != nil {
		if err := whileWedged(); err != nil {
			return err
		}
	}
	// Recovery against a wedged engine must refuse, not hang.
	if _, err := srv.Recover(nss[0]); err == nil {
		return fmt.Errorf("Recover(%s) succeeded while shard %d was wedged", nss[0], shard)
	}

	stall.Release()
	r, err := wc.rr.Read()
	if err != nil {
		return fmt.Errorf("wedged write reply: %w", err)
	}
	statuses[r.Status]++
	mirror(m)(server.Reply{Req: wedged, Rep: r})

	// The stall resolved: every fenced namespace must recover to healthy.
	for _, ns := range nss {
		if err := waitFor(5*time.Second, func() bool {
			h, err := srv.Recover(ns)
			return err == nil && h == server.Healthy
		}); err != nil {
			return fmt.Errorf("namespace %s never recovered: %w", ns, err)
		}
	}
	if srv.Stalled() {
		return fmt.Errorf("fleet still reports stalled after recovery")
	}

	// Recovered means serving: one write, one read, both OK.
	var served []uint8
	apply := mirror(m)
	if _, err := c.RunRequests([]workload.Request{
		wedged,
		{Op: workload.OpRead, LSN: wedged.LSN, Sectors: wedged.Sectors},
	}, 1, func(r server.Reply) {
		served = append(served, r.Rep.Status)
		statuses[r.Rep.Status]++
		apply(r)
	}); err != nil {
		return fmt.Errorf("post-recovery serve: %w", err)
	}
	if len(served) != 2 || served[0] != wire.StatusOK || served[1] != wire.StatusOK {
		return fmt.Errorf("post-recovery serve statuses: %v", served)
	}
	return nil
}

// badBlockStorm scripts every erase to fail, churns writes until the
// capacity floor degrades the device to read-only, and checks the
// breaker sheds writes while reads keep flowing.
func badBlockStorm(guard *ftl.Guard, inj *fault.Injector, c *server.Client, m *ftltest.Model, ps int, nsSectors int64, res *Result) error {
	// The injector is single-threaded with the engine; scripting the
	// storm under the guard's lock lands it between commands.
	guard.Do(func() {
		inj.Script(fault.Event{Kind: fault.KindErase, Chip: -1, Block: -1, Count: 10000})
	})

	// one issues a single request, mirrors its reply, and returns its
	// status. A READ_ONLY refusal changed nothing — the breaker shed it
	// before the engine, or the FTL refused the one-page write whole — so
	// the model stays exact across it.
	apply := mirror(m)
	one := func(req workload.Request) (uint8, error) {
		var status uint8
		_, err := c.RunRequests([]workload.Request{req}, 1, func(r server.Reply) {
			if status = r.Rep.Status; status != wire.StatusReadOnly {
				apply(r)
			}
		})
		res.Statuses[status]++
		return status, err
	}

	// The churn leaves page 0 alone: wedge's acknowledged write there is
	// what the read below must still find. Whether any churn write lands
	// before the floor trips depends on the device state phase 1's torn
	// connections left behind, so no fresh acknowledgment is demanded.
	sawReadOnly := false
	pages := nsSectors / int64(ps)
	for i := 0; i < churnCap && !sawReadOnly; i++ {
		lsn := (1 + int64(i)%(pages-1)) * int64(ps)
		st, err := one(workload.Request{Op: workload.OpWrite, LSN: lsn, Sectors: ps})
		if err != nil {
			return err
		}
		switch st {
		case wire.StatusOK, wire.StatusErr, wire.StatusUncorrectable:
			// Landed, or collateral of the storm (mirrored as undefined).
		case wire.StatusReadOnly:
			sawReadOnly = true
		default:
			return fmt.Errorf("unexpected churn status %s", wire.StatusName(st))
		}
	}
	if !sawReadOnly {
		return fmt.Errorf("device never degraded to read-only in %d writes", churnCap)
	}

	// Breaker open: writes shed with READ_ONLY, reads still served.
	st, err := one(wedged)
	if err != nil {
		return err
	}
	if st != wire.StatusReadOnly {
		return fmt.Errorf("post-floor write answered %s, want READ_ONLY", wire.StatusName(st))
	}
	st, err = one(workload.Request{Op: workload.OpRead, LSN: wedged.LSN, Sectors: wedged.Sectors})
	if err != nil {
		return err
	}
	if st != wire.StatusOK {
		return fmt.Errorf("read in read-only mode answered %s", wire.StatusName(st))
	}

	ns, err := stat(c)
	if err != nil {
		return err
	}
	if ns.Health != "read-only" {
		return fmt.Errorf("namespace health %q after the floor tripped", ns.Health)
	}
	if ns.ShedCommands == 0 {
		return fmt.Errorf("breaker shed nothing despite read-only health")
	}
	res.ShedReadOnly = ns.ShedCommands
	return nil
}

// spoPhase serves a fresh stack, cuts power mid-stream, drains, remounts
// through the server (its mount is the PR-3 OOB recovery), verifies the
// model, and serves new work after the crash.
func spoPhase(cfg Config) (ftl.MountReport, error) {
	var none ftl.MountReport
	dev, inj, stall, err := buildStack(fault.Profile{Seed: cfg.Seed ^ 0x73706f})
	if err != nil {
		return none, err
	}
	srv, err := server.New(server.Config{
		Stacks:           []server.ShardStack{{Device: dev, FTL: stall, LogicalSectors: sectors}},
		WatchdogInterval: -1, // a dead device errors fast; no stalls here
	})
	if err != nil {
		return none, err
	}
	cut := dev.OpCount() + 200
	inj.ArmSPO(cut, true)
	if err := srv.Serve(); err != nil {
		return none, err
	}
	c, err := server.DialTimeout(srv.Addr(), "default", 2*time.Second)
	if err != nil {
		return none, err
	}
	defer c.Close()

	reqs, err := stream(sectors, int(c.Welcome.PageSectors), 500, cfg.Seed^0x737472)
	if err != nil {
		return none, err
	}
	// Depth-1 mirror with the stop-at-the-cut contract of the PR-3
	// checker: after the first error nothing can reach flash.
	m := ftltest.NewModel(sectors)
	apply := mirror(m)
	dead := false
	cr, err := c.RunRequests(reqs, 1, func(r server.Reply) {
		if dead {
			return
		}
		if r.Rep.Status != wire.StatusOK {
			dead = true
			if r.Req.Op == workload.OpWrite {
				m.CrashWrite(r.Req.LSN, r.Req.Sectors)
			}
			return
		}
		apply(r)
	})
	if err != nil {
		return none, fmt.Errorf("SPO client run: %w", err)
	}
	if inj.SPOArmed() {
		return none, fmt.Errorf("power never died: %d device ops, armed at %d", dev.OpCount(), cut)
	}
	if cr.Errors == 0 {
		return none, fmt.Errorf("no client-visible errors despite the power cut")
	}
	if dev.Alive() {
		return none, fmt.Errorf("device still alive after SPO")
	}
	rep, err := srv.Shutdown()
	if err != nil {
		return none, fmt.Errorf("shutdown on dead device: %w", err)
	}
	if rep.Submitted != rep.Completed {
		return none, fmt.Errorf("drain dropped commands on dead device: %d vs %d", rep.Submitted, rep.Completed)
	}

	// Power on and remount THROUGH the server: New performs the OOB
	// recovery, then the recovered state must satisfy the model and
	// serve fresh work.
	dev.PowerOn()
	f2, err := core.New(dev, core.DefaultConfig(sectors))
	if err != nil {
		return none, err
	}
	srv2, err := server.New(server.Config{
		Stacks: []server.ShardStack{{Device: dev, FTL: f2, LogicalSectors: sectors}},
	})
	if err != nil {
		return none, fmt.Errorf("remount: %w", err)
	}
	mount := srv2.ShardMountReport(0)
	if err := checkModel(srv2, tenant{ns: "default", sectors: sectors, m: m}); err != nil {
		return none, fmt.Errorf("post-SPO: %w", err)
	}
	if err := srv2.Serve(); err != nil {
		return none, err
	}
	c2, err := server.DialTimeout(srv2.Addr(), "default", 2*time.Second)
	if err != nil {
		return none, err
	}
	defer c2.Close()
	cr2, err := c2.RunRequests([]workload.Request{
		{Op: workload.OpWrite, LSN: 0, Sectors: 4, Sync: true},
		{Op: workload.OpRead, LSN: 0, Sectors: 4},
	}, 1, nil)
	if err != nil {
		return none, err
	}
	if cr2.Ops != 2 || cr2.Errors != 0 {
		return none, fmt.Errorf("post-recovery serve: %+v", cr2)
	}
	if _, err := srv2.Shutdown(); err != nil {
		return none, err
	}
	return mount, nil
}

// addStatuses folds one client's final-status counts into a campaign's.
func addStatuses(dst, src map[uint8]int64) {
	for st, n := range src {
		dst[st] += n
	}
}

// tenant names one namespace's reference model for the differential check,
// and the client driving it when the campaign attached one.
type tenant struct {
	ns      string
	sectors int64
	m       *ftltest.Model
	c       *server.Client
}

// attach dials ns directly and gives it a fresh model.
func attach(addr, ns string) (tenant, error) {
	c, err := server.DialTimeout(addr, ns, 2*time.Second)
	if err != nil {
		return tenant{}, err
	}
	n := int64(c.Welcome.Sectors)
	return tenant{ns, n, ftltest.NewModel(n), c}, nil
}

// stat decodes a client's namespace STAT snapshot.
func stat(c *server.Client) (server.NamespaceStats, error) {
	var ns server.NamespaceStats
	payload, err := c.Stat()
	if err != nil {
		return ns, err
	}
	err = json.Unmarshal(payload, &ns)
	return ns, err
}

// checkModel compares what a tenant's namespace durably holds, sector by
// sector and wherever placement put it, against the tenant's model.
func checkModel(srv *server.Server, t tenant) error {
	for lsn := int64(0); lsn < t.sectors; lsn++ {
		v, err := srv.NamespaceVersion(t.ns, lsn)
		if err != nil {
			return err
		}
		if !t.m.Acceptable(lsn, v) {
			return fmt.Errorf("acked write lost on %s: sector %d at version %d, acceptable %s",
				t.ns, lsn, v, t.m.Describe(lsn))
		}
	}
	return nil
}

// drainAndCheck is the tail of every served campaign: shut down with no
// accepted command dropped, no acknowledged write lost on any tenant, and
// every status any client saw inside the typed wire vocabulary.
func drainAndCheck(srv *server.Server, statuses map[uint8]int64, tenants ...tenant) error {
	rep, err := srv.Shutdown()
	if err != nil {
		return fmt.Errorf("chaos: shutdown: %w", err)
	}
	if rep.Submitted != rep.Completed {
		return fmt.Errorf("chaos: drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}
	for _, t := range tenants {
		if err := checkModel(srv, t); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	for st := range statuses {
		if !wire.KnownStatus(st) {
			return fmt.Errorf("chaos: untyped status %d surfaced to a client", st)
		}
	}
	return nil
}

// loopingTenant is a sibling tenant's batch loop: its counters belong to
// the loop goroutine until done delivers, because the campaign's main
// goroutine records probe statuses into its own result meanwhile.
type loopingTenant struct {
	ops      int64
	statuses map[uint8]int64
	wall     *metrics.Histogram
	done     chan error
}

// loopTenant runs next's model-checked batches at depth 8 on t until stop
// closes, failing as soon as a batch ends with a final status outside
// tolerated — the one way the sibling tenants differ.
func loopTenant(t tenant, stop <-chan struct{}, next func(batch uint64) ([]workload.Request, error), tolerated ...uint8) *loopingTenant {
	lt := &loopingTenant{statuses: make(map[uint8]int64), wall: metrics.NewHistogram(), done: make(chan error, 1)}
	go func() {
		for batch := uint64(0); ; batch++ {
			select {
			case <-stop:
				lt.done <- nil
				return
			default:
			}
			reqs, err := next(batch)
			if err != nil {
				lt.done <- err
				return
			}
			cr, err := t.c.RunRequests(reqs, 8, mirror(t.m))
			if err != nil {
				lt.done <- fmt.Errorf("%s batch %d: %w", t.ns, batch, err)
				return
			}
			lt.ops += cr.Ops
			lt.wall.Merge(cr.Wall)
			for st, n := range cr.Statuses {
				lt.statuses[st] += n
				if !slices.Contains(tolerated, st) {
					lt.done <- fmt.Errorf("%s tenant saw %s (%d times) in batch %d; only %v are legitimate",
						t.ns, wire.StatusName(st), n, batch, tolerated)
					return
				}
			}
		}
	}()
	return lt
}

// offShard0 drops the requests of a wide batch that would write to shard
// 0: writes touching one of its stripes (stripe si of a "*" namespace is
// one page on shard si%shards), and FLUSHes, which a striped namespace
// turns into a barrier over every shard. Reads still reach every shard.
// Shard 0's media storm fails its write-back, and subFTL then loses
// acknowledged data — buffered sectors, and subpage survivors that
// relocation drops at the capacity floor, whichever tenant wrote them —
// so wide data there could not pass the model check.
// TODO(ROADMAP item 2): delete offShard0 with the write-back fix.
func offShard0(reqs []workload.Request, ps, shards int) []workload.Request {
	su, k := int64(ps), int64(shards)
	out := reqs[:0]
	for _, r := range reqs {
		first, last := r.LSN/su, (r.LSN+int64(r.Sectors)-1)/su
		if r.Op == workload.OpFlush || r.Op == workload.OpWrite && (first%k == 0 || last/k > first/k) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// probe opens one raw connection, issues one request, and returns the
// reply status.
func probe(addr, ns string, req workload.Request) (uint8, error) {
	rc, err := rawDial(addr, ns, 2*time.Second)
	if err != nil {
		return 0, err
	}
	defer rc.close()
	if err := rc.send(req); err != nil {
		return 0, err
	}
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r, err := rc.rr.Read()
	if err != nil {
		return 0, err
	}
	return r.Status, nil
}

// rawClient is a frame-level connection for campaign actors that
// deliberately misbehave (or probe) below the Client abstraction.
type rawClient struct {
	conn net.Conn
	rr   *wire.ReplyReader
	wl   wire.Welcome
}

func rawDial(addr, ns string, timeout time.Duration) (*rawClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(timeout))
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
		return nil, fmt.Errorf("chaos: handshake refused: %s", wl.Err)
	}
	conn.SetDeadline(time.Time{})
	return &rawClient{conn: conn, rr: wire.NewReplyReader(conn), wl: wl}, nil
}

// send writes one request as a command frame. Every frame carries tag 1:
// a raw client has at most one reply it reads.
func (r *rawClient) send(req workload.Request) error {
	cmd, err := wire.CmdOf(1, req)
	if err != nil {
		return err
	}
	return wire.WriteCmd(r.conn, cmd)
}

func (r *rawClient) close() { r.conn.Close() }

// runNoise launches the badly-behaved tenants of the storm phase on the
// noise namespace: a client that blasts writes and tears the connection
// without reading a single reply, and a dead client that submits work
// and then never drains its socket. Their invariant is simply that the
// server survives them (slots reclaim, engine never blocks); the drain
// at campaign end proves it.
func runNoise(addr string, seed uint64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := sim.NewRNG(seed)
		for round := 0; round < 3; round++ {
			rc, err := rawDial(addr, noiseNS, time.Second)
			if err != nil {
				return
			}
			nsSectors := int64(rc.wl.Sectors)
			for i := 0; i < 40; i++ {
				lsn := rng.Int63n(nsSectors - 8)
				if rc.send(workload.Request{Op: workload.OpWrite, LSN: lsn, Sectors: 1 + rng.Intn(4)}) != nil {
					break
				}
			}
			// Round 0 and 1: tear abruptly with replies unread. Round 2:
			// play dead for a moment so the write-timeout path runs too.
			if round == 2 {
				time.Sleep(300 * time.Millisecond)
			}
			rc.close()
		}
	}()
	return done
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("condition not reached within %v", d)
}

// TearProxy forwards TCP between clients and a backend, cutting the
// connection after a byte budget of server->client traffic for each of
// the first tears connections — a deterministic-enough stand-in for a
// flaky network that loses acknowledgments mid-stream.
type TearProxy struct {
	ln     net.Listener
	target string
	tears  atomic.Int32
	limit  int
}

// NewTearProxy listens on a loopback port and forwards to target.
func NewTearProxy(target string, tears int32, limit int) (*TearProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &TearProxy{ln: ln, target: target, limit: limit}
	p.tears.Store(tears)
	go p.run()
	return p, nil
}

// Addr is the address clients dial instead of the target.
func (p *TearProxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting; forwarded connections run to their end.
func (p *TearProxy) Close() error { return p.ln.Close() }

func (p *TearProxy) run() {
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
