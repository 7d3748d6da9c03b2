package server_test

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"espftl/internal/core"
	"espftl/internal/experiment"
	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/ftltest"
	"espftl/internal/host"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// shardDiffSpecs is the differential workload's namespace layout: two
// hash-placed tenants and one namespace striped across every shard. The
// sizes are fixed so the carve is identical at every shard count —
// the precondition for byte-identical version state.
var shardDiffSpecs = []server.NamespaceSpec{
	{Name: "a", Sectors: 4096},
	{Name: "b", Sectors: 4096},
	{Name: "s", Sectors: 4096, Placement: "*"},
}

// runShardedDifferential serves the given streams on a fleet of the
// given shard count and returns every namespace's per-sector version
// state after a clean drain.
func runShardedDifferential(t *testing.T, shards int, streams map[string][]workload.Request) map[string][]uint32 {
	t.Helper()
	srv, err := server.New(server.Config{
		Stacks:     buildStacks(t, shards, subStack),
		Namespaces: shardDiffSpecs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make(map[string]error)
	reps := make(map[string]*server.ClientReport)
	for name, stream := range streams {
		wg.Add(1)
		go func(name string, stream []workload.Request) {
			defer wg.Done()
			c, err := server.Dial(srv.Addr(), name)
			var cr *server.ClientReport
			if err == nil {
				defer c.Close()
				cr, err = c.RunRequests(stream, 8, nil)
			}
			mu.Lock()
			reps[name], errs[name] = cr, err
			mu.Unlock()
		}(name, stream)
	}
	wg.Wait()
	for name, err := range errs {
		if err != nil {
			t.Fatalf("shards=%d tenant %s: %v", shards, name, err)
		}
		cr := reps[name]
		if cr.Ops != int64(len(streams[name])) || cr.Errors != 0 || cr.Rejected != 0 {
			t.Fatalf("shards=%d tenant %s report: %+v", shards, name, cr)
		}
	}

	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shards=%d shutdown: %v", shards, err)
	}
	if rep.Submitted != rep.Completed || rep.Errors != 0 {
		t.Fatalf("shards=%d server report: submitted %d completed %d errors %d",
			shards, rep.Submitted, rep.Completed, rep.Errors)
	}
	for i := 0; i < srv.ShardCount(); i++ {
		if err := srv.ShardFTL(i).Check(); err != nil {
			t.Fatalf("shards=%d shard %d invariants: %v", shards, i, err)
		}
		if srv.ShardInflight(i) != 0 {
			t.Fatalf("shards=%d shard %d leaked slots", shards, i)
		}
	}

	out := make(map[string][]uint32)
	for _, sp := range shardDiffSpecs {
		vs := make([]uint32, sp.Sectors)
		for lsn := int64(0); lsn < sp.Sectors; lsn++ {
			v, err := srv.NamespaceVersion(sp.Name, lsn)
			if err != nil {
				t.Fatal(err)
			}
			vs[lsn] = v
		}
		out[sp.Name] = vs
	}
	return out
}

// TestShardedDifferential is the scale-out acceptance gate: the same
// three-tenant mixed workload (>10k ops, QD 8 per tenant, one tenant
// striped over every shard) served at shards=1 and shards=4 must reach
// byte-identical per-namespace durable state, and both must agree with
// the reference model. Together with TestLoopbackDifferential — which
// pins the shards=1 server to the direct host-scheduler path — this
// anchors every shard count to the single-engine semantics.
func TestShardedDifferential(t *testing.T) {
	ps := experiment.QuickGeometry.SubpagesPerPage
	streams := map[string][]workload.Request{
		"a": mixedStream(t, 4096, ps, 5200, 41),
		"b": mixedStream(t, 4096, ps, 5200, 42),
		"s": mixedStream(t, 4096, ps, 2400, 43),
	}
	v1 := runShardedDifferential(t, 1, streams)
	v4 := runShardedDifferential(t, 4, streams)

	for _, sp := range shardDiffSpecs {
		a, b := v1[sp.Name], v4[sp.Name]
		diverged := 0
		for lsn := range a {
			if a[lsn] != b[lsn] {
				diverged++
				if diverged <= 5 {
					t.Errorf("namespace %s sector %d: shards=1 version %d, shards=4 version %d",
						sp.Name, lsn, a[lsn], b[lsn])
				}
			}
		}
		if diverged > 0 {
			t.Fatalf("namespace %s: %d of %d sectors diverged between shard counts",
				sp.Name, diverged, len(a))
		}
		// And the shared reference model accepts the (identical) state:
		// the full acknowledged history, all flushed by the final FLUSH.
		m := ftltest.NewModel(sp.Sectors)
		mirror(m, 0, streams[sp.Name])
		m.Flush()
		for lsn := int64(0); lsn < sp.Sectors; lsn++ {
			if !m.Acceptable(lsn, a[lsn]) {
				t.Fatalf("namespace %s sector %d: version %d unacceptable, want %s",
					sp.Name, lsn, a[lsn], m.Describe(lsn))
			}
		}
	}
}

// crashEnv is the shared small-device environment of the sharded crash
// and barrier tests: one of these per shard, uniform geometry.
func crashEnv(seed uint64) ftltest.CrashEnv {
	return ftltest.CrashEnv{
		Geometry: ftltest.TinyGeometry(),
		Sectors:  512,
		Seed:     seed,
		Factory: func(dev *nand.Device) (ftl.FTL, error) {
			cfg := core.DefaultConfig(512)
			cfg.GCReserveBlocks = 3
			cfg.BufferSectors = 32
			return core.New(dev, cfg)
		},
	}
}

// crashFleet builds n independent crash-test shards and returns their
// environments, devices, injectors, and ready-to-serve stacks.
func crashFleet(t *testing.T, n int, seed uint64) ([]ftltest.CrashEnv, []*nand.Device, []*fault.Injector, []server.ShardStack) {
	t.Helper()
	envs := make([]ftltest.CrashEnv, n)
	devs := make([]*nand.Device, n)
	injs := make([]*fault.Injector, n)
	stacks := make([]server.ShardStack, n)
	for i := 0; i < n; i++ {
		envs[i] = crashEnv(seed + uint64(i))
		devs[i], injs[i] = envs[i].NewDevice(t)
		f, err := envs[i].Factory(devs[i])
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = server.ShardStack{Device: devs[i], FTL: f, LogicalSectors: 512}
	}
	return envs, devs, injs, stacks
}

// scriptRequests translates a ftltest crash script to wire requests.
func scriptRequests(script []ftltest.CrashOp) []workload.Request {
	var reqs []workload.Request
	for _, op := range script {
		switch op.Kind {
		case ftltest.CrashWrite:
			reqs = append(reqs, workload.Request{Op: workload.OpWrite, LSN: op.LSN, Sectors: op.Sectors, Sync: op.Sync})
		case ftltest.CrashRead:
			reqs = append(reqs, workload.Request{Op: workload.OpRead, LSN: op.LSN, Sectors: op.Sectors})
		case ftltest.CrashTrim:
			reqs = append(reqs, workload.Request{Op: workload.OpTrim, LSN: op.LSN, Sectors: op.Sectors})
		case ftltest.CrashFlush:
			reqs = append(reqs, workload.Request{Op: workload.OpFlush})
		}
	}
	return reqs
}

// TestShardedSPOCutRemount pulls the plug on ONE shard of a four-shard
// fleet mid-workload: the tenant on the dead shard sees errors and its
// acknowledged state must survive remount (the PR-3 recovery contract),
// the tenant on a sibling shard must finish its whole stream untouched,
// the drain must not drop a command anywhere, and every shard must
// remount cleanly afterwards.
func TestShardedSPOCutRemount(t *testing.T) {
	const sectors = 512
	envs, devs, injs, stacks := crashFleet(t, 4, 40)
	srv, err := server.New(server.Config{
		Stacks: stacks,
		Namespaces: []server.NamespaceSpec{
			{Name: "a", Placement: "0"},
			{Name: "b", Placement: "1"},
		},
		WatchdogInterval: -1, // a dead device errors fast; no stalls here
	})
	if err != nil {
		t.Fatal(err)
	}
	cut := devs[0].OpCount() + 200
	injs[0].ArmSPO(cut, true)
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}

	ca, err := server.Dial(srv.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := server.Dial(srv.Addr(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	ps := int(ca.Welcome.PageSectors)

	// Tenant a runs at depth 1 so its model can be mirrored from the
	// reply stream with the stop-at-the-cut contract (see
	// TestServedCrashRecovery); tenant b runs the usual mixed stream at
	// QD 8 on its own, unharmed shard, concurrently.
	reqsA := scriptRequests(ftltest.MixedScript(sectors, ps, 400, 7))
	streamB := mixedStream(t, sectors, ps, 1200, 88)

	var wg sync.WaitGroup
	var repB *server.ClientReport
	var errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		repB, errB = cb.RunRequests(streamB, 8, nil)
	}()

	mA := ftltest.NewModel(sectors)
	dead := false
	crA, err := ca.RunRequests(reqsA, 1, func(r server.Reply) {
		if dead {
			return
		}
		if r.Rep.Status != 0 {
			dead = true
			if r.Req.Op == workload.OpWrite {
				mA.CrashWrite(r.Req.LSN, r.Req.Sectors)
			}
			return
		}
		switch r.Req.Op {
		case workload.OpWrite:
			mA.Write(r.Req.LSN, r.Req.Sectors, r.Req.Sync)
		case workload.OpTrim:
			mA.Trim(r.Req.LSN, r.Req.Sectors)
		case workload.OpFlush:
			mA.Flush()
		}
	})
	wg.Wait()
	if err != nil {
		t.Fatalf("tenant a run: %v", err)
	}
	if errB != nil {
		t.Fatalf("tenant b run: %v", errB)
	}
	if injs[0].SPOArmed() {
		t.Fatalf("power never died on shard 0: %d device ops, armed at %d", devs[0].OpCount(), cut)
	}
	if crA.Errors == 0 {
		t.Fatal("no client-visible errors on tenant a despite the power cut")
	}
	if devs[0].Alive() {
		t.Fatal("shard 0 device still alive after SPO")
	}
	// The sibling shard never noticed: tenant b's whole stream acked
	// cleanly while shard 0 was dying.
	if repB.Ops != int64(len(streamB)) || repB.Errors != 0 || repB.Rejected != 0 {
		t.Fatalf("tenant b on sibling shard disturbed by shard 0's SPO: %+v", repB)
	}

	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown with one dead shard: %v", err)
	}
	if rep.Submitted != rep.Completed {
		t.Fatalf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}

	// Remount ALL shards. Shard 0 runs the full PR-3 recovery contract
	// against the acknowledged model; the siblings remount their intact
	// state — tenant b's stream ends in a FLUSH, so its whole history is
	// durable on shard 1.
	ftltest.VerifyRecovered(t, envs[0], devs[0], mA, cut)

	mB := ftltest.NewModel(sectors)
	mirror(mB, 0, streamB)
	mB.Flush()
	for i := 1; i < 4; i++ {
		f, err := envs[i].Factory(devs[i])
		if err != nil {
			t.Fatalf("shard %d remount factory: %v", i, err)
		}
		if _, err := f.Recover(); err != nil {
			t.Fatalf("shard %d remount: %v", i, err)
		}
		if err := f.Check(); err != nil {
			t.Fatalf("shard %d remounted invariants: %v", i, err)
		}
		if i != 1 {
			continue
		}
		for lsn := int64(0); lsn < sectors; lsn++ {
			if v := f.VersionOf(lsn); !mB.Acceptable(lsn, v) {
				t.Fatalf("tenant b sector %d remounted at version %d, want %s",
					lsn, v, mB.Describe(lsn))
			}
		}
	}
}

// barrierStream builds the WRITE..FLUSH..READ..WRITE pattern of the
// barrier tests: phase-1 writes deliberately crossing stripe
// boundaries, one FLUSH (the cross-shard barrier), reads of every
// written range, then a phase-2 tail of acknowledged-but-unflushed
// writes. flushAt is the request index of the FLUSH.
func barrierStream(total int64, ps int) (reqs []workload.Request, flushAt int) {
	// Phase 1: every other page row, written with a misaligned span that
	// crosses into the next stripe — each such write fans out to two
	// shards when striped.
	for lsn := int64(0); lsn+int64(2*ps) <= total; lsn += int64(2 * ps) {
		reqs = append(reqs, workload.Request{Op: workload.OpWrite, LSN: lsn + 1, Sectors: ps + 2})
	}
	flushAt = len(reqs)
	reqs = append(reqs, workload.Request{Op: workload.OpFlush})
	// Reads after the barrier: every write above must be readable.
	for lsn := int64(0); lsn+int64(2*ps) <= total; lsn += int64(2 * ps) {
		reqs = append(reqs, workload.Request{Op: workload.OpRead, LSN: lsn + 1, Sectors: ps + 2})
	}
	// Phase 2: overwrite a prefix, acknowledged but never flushed.
	for lsn := int64(0); lsn < total/4; lsn += int64(ps) {
		reqs = append(reqs, workload.Request{Op: workload.OpWrite, LSN: lsn, Sectors: ps})
	}
	return reqs, flushAt
}

// TestFlushBarrierOrdering drives WRITE..FLUSH..READ..WRITE through a
// namespace striped across every shard, at shard counts 1, 2 and 4,
// then remounts every shard (dropping each FTL's RAM state, as a crash
// would) and checks the model's [durable, acked] interval semantics
// sector by sector: everything acknowledged before the FLUSH must have
// survived on every shard — the barrier completed everywhere, not just
// on the fastest shard — and the unflushed tail may land anywhere in
// its interval.
func TestFlushBarrierOrdering(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		envs, devs, _, stacks := crashFleet(t, shards, uint64(70+10*shards))
		srv, err := server.New(server.Config{
			Stacks:     stacks,
			Namespaces: []server.NamespaceSpec{{Name: "s", Placement: "*"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(); err != nil {
			t.Fatal(err)
		}
		c, err := server.Dial(srv.Addr(), "s")
		if err != nil {
			t.Fatal(err)
		}
		total := int64(c.Welcome.Sectors)
		ps := int(c.Welcome.PageSectors)
		if want := int64(shards) * 512; total != want {
			t.Fatalf("shards=%d: striped namespace spans %d sectors, want %d", shards, total, want)
		}

		reqs, flushAt := barrierStream(total, ps)
		cr, err := c.RunRequests(reqs, 8, nil)
		c.Close()
		if err != nil {
			t.Fatalf("shards=%d barrier run: %v", shards, err)
		}
		if cr.Ops != int64(len(reqs)) || cr.Errors != 0 || cr.Rejected != 0 {
			t.Fatalf("shards=%d barrier report: %+v", shards, cr)
		}
		if _, err := srv.Shutdown(); err != nil {
			t.Fatalf("shards=%d shutdown: %v", shards, err)
		}

		// The model: phase 1 flushed, tail acked only. The server shut
		// down without a final flush, so the tail's durability is
		// genuinely open — exactly what Acceptable's interval checks.
		m := ftltest.NewModel(total)
		mirror(m, 0, reqs[:flushAt])
		m.Flush()
		mirror(m, 0, reqs[flushAt:])

		// Remount every shard and probe through the stripe map: stripe
		// si lives on shard si%k at stripe row si/k.
		remounted := make([]ftl.FTL, shards)
		for i := range remounted {
			f, err := envs[i].Factory(devs[i])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Recover(); err != nil {
				t.Fatalf("shards=%d shard %d remount: %v", shards, i, err)
			}
			remounted[i] = f
		}
		su, k := int64(ps), int64(shards)
		for lsn := int64(0); lsn < total; lsn++ {
			si := lsn / su
			local := (si/k)*su + lsn%su
			v := remounted[si%k].VersionOf(local)
			if !m.Acceptable(lsn, v) {
				t.Fatalf("shards=%d sector %d (shard %d local %d): version %d unacceptable, want %s",
					shards, lsn, si%k, local, v, m.Describe(lsn))
			}
		}
	}
}

// TestTornMidBarrier drops a client mid-FLUSH-barrier on a striped
// namespace: bursts of cross-shard writes and barrier flushes are fired
// with no reply ever read, then the connection dies. Every shard must
// reclaim its admission slots, and the fleet must keep serving and
// drain cleanly.
func TestTornMidBarrier(t *testing.T) {
	srv, err := server.New(server.Config{
		Stacks:       buildStacks(t, 4, subStack),
		Namespaces:   []server.NamespaceSpec{{Name: "s", Placement: "*"}},
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteHello(conn, wire.Hello{NS: "s"}); err != nil {
		t.Fatal(err)
	}
	wl, err := wire.ReadWelcome(conn)
	if err != nil || wl.Status != wire.StatusOK {
		t.Fatalf("handshake: %v %+v", err, wl)
	}
	ps := int64(wl.PageSectors)
	span := int64(wl.Sectors) - 2*ps
	var buf []byte
	tag := uint64(0)
	for round := 0; round < 12; round++ {
		// A spray of stripe-crossing writes, then a barrier FLUSH; the
		// client will be gone before any of the joins complete.
		for i := int64(0); i < 8; i++ {
			cmd, err := wire.CmdOf(tag, workload.Request{
				Op: workload.OpWrite, LSN: (int64(round)*67 + i*9) * ps % span, Sectors: int(ps) + 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			tag++
			buf = wire.AppendCmd(buf, cmd)
		}
		cmd, err := wire.CmdOf(tag, workload.Request{Op: workload.OpFlush})
		if err != nil {
			t.Fatal(err)
		}
		tag++
		buf = wire.AppendCmd(buf, cmd)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Every admitted fragment completes and releases its shard slot even
	// though nobody reads the replies.
	waitFor(t, 10*time.Second, "all shards to reclaim slots after the torn barrier", func() bool {
		for i := 0; i < srv.ShardCount(); i++ {
			if srv.ShardInflight(i) != 0 {
				return false
			}
		}
		return true
	})

	// The fleet still serves a well-behaved client end to end.
	c, err := server.Dial(srv.Addr(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reqs, _ := barrierStream(int64(c.Welcome.Sectors)/8, int(c.Welcome.PageSectors))
	cr, err := c.RunRequests(reqs, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ops != int64(len(reqs)) || cr.Errors != 0 || cr.Rejected != 0 {
		t.Fatalf("post-torn barrier run: %+v", cr)
	}
	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown after torn barrier: %v", err)
	}
	if rep.Submitted != rep.Completed {
		t.Fatalf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}
	if srv.Inflight() != 0 {
		t.Fatalf("%d slots leaked", srv.Inflight())
	}
}

// TestStatsHammerShardedDrain races /stats and /metrics scrapes against
// live multi-shard load and a concurrent drain — the regression test
// for the aggregation's race-cleanliness (run with -race in CI's
// shard-smoke job).
func TestStatsHammerShardedDrain(t *testing.T) {
	srv, err := server.New(server.Config{
		Stacks:   buildStacks(t, 3, subStack),
		HTTPAddr: "127.0.0.1:0",
		Namespaces: []server.NamespaceSpec{
			{Name: "a", Sectors: 4096},
			{Name: "s", Sectors: 4096, Placement: "*"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}

	// The scrape hammer: poll both endpoints flat out until shutdown,
	// counting pages that showed all three shards.
	stop := make(chan struct{})
	var sawAllShards atomic.Int64
	var hammers sync.WaitGroup
	for w := 0; w < 3; w++ {
		hammers.Add(1)
		go func() {
			defer hammers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + srv.HTTPAddr() + "/stats")
				if err != nil {
					continue // listener may already be gone mid-drain
				}
				var page server.StatsPage
				derr := json.NewDecoder(resp.Body).Decode(&page)
				resp.Body.Close()
				if derr == nil && len(page.Shards) == 3 {
					sawAllShards.Add(1)
				}
				resp, err = http.Get("http://" + srv.HTTPAddr() + "/metrics")
				if err != nil {
					continue
				}
				var mp server.MetricsPage
				json.NewDecoder(resp.Body).Decode(&mp)
				resp.Body.Close()
			}
		}()
	}

	// Live load on both tenants while the hammer runs. Dial before the
	// drain can start; only the streams race it.
	var load sync.WaitGroup
	for _, name := range []string{"a", "s"} {
		c, err := server.Dial(srv.Addr(), name)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		defer c.Close()
		stream := mixedStream(t, 4096, int(c.Welcome.PageSectors), 3000, 5)
		load.Add(1)
		go func(c *server.Client) {
			defer load.Done()
			c.RunRequests(stream, 8, nil) // the drain may cut the tail; that's the point
		}(c)
	}

	// Let load and scrapes overlap, then drain underneath both.
	waitFor(t, 5*time.Second, "scrapes to observe all shards", func() bool {
		return sawAllShards.Load() > 0
	})
	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown under scrape load: %v", err)
	}
	close(stop)
	hammers.Wait()
	load.Wait()
	if rep.Submitted != rep.Completed {
		t.Fatalf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}
	if sawAllShards.Load() == 0 {
		t.Fatal("no scrape ever observed all shards")
	}
}

// TestMetricsMergedAcrossShards: the fleet-level /metrics blocks are
// ftl.Stats.Add over the shards — counters (the float WearUnits included)
// sum, and the wear distribution merges as a distribution instead of
// having its extremes added up. The two shards are loaded unevenly so a
// merge that kept shard 0's value, or summed the extremes, shows.
func TestMetricsMergedAcrossShards(t *testing.T) {
	srv, err := server.New(server.Config{
		Stacks: buildStacks(t, 2, experiment.RunConfig{
			Kind:        experiment.KindFGM,
			Geometry:    ftltest.TinyGeometry(),
			LogicalFrac: 0.35, // the tiny device needs the spare blocks
		}),
		PreconditionFrac: 0.9,
		HTTPAddr:         "127.0.0.1:0",
		Namespaces: []server.NamespaceSpec{
			{Name: "busy", Placement: "0"},
			{Name: "calm", Placement: "1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"busy": 6000, "calm": 1500} {
		c, err := server.Dial(srv.Addr(), name)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		stream := mixedStream(t, int64(c.Welcome.Sectors), int(c.Welcome.PageSectors), n, 7)
		if cr, err := c.RunRequests(stream, 8, nil); err != nil || cr.Errors != 0 {
			t.Fatalf("%s load: %+v, %v", name, cr, err)
		}
		c.Close()
	}
	resp, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mp server.MetricsPage
	err = json.NewDecoder(resp.Body).Decode(&mp)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(mp.Shards) != 2 {
		t.Fatalf("metrics page lists %d shards", len(mp.Shards))
	}
	a, b := mp.Shards[0], mp.Shards[1]
	if b.Device.WearUnits == 0 || a.FTL.Wear.EraseMax == b.FTL.Wear.EraseMax {
		t.Fatalf("shards not distinguishable (wear units %v / %v, erase max %d / %d); the checks below would be vacuous",
			a.Device.WearUnits, b.Device.WearUnits, a.FTL.Wear.EraseMax, b.FTL.Wear.EraseMax)
	}
	if want := a.Device.WearUnits + b.Device.WearUnits; mp.Device.WearUnits != want || mp.FTL.Device.WearUnits != want {
		t.Errorf("merged WearUnits %v (FTL block %v), want the shard sum %v", mp.Device.WearUnits, mp.FTL.Device.WearUnits, want)
	}
	if want := a.Device.Erases + b.Device.Erases; mp.Device.Erases != want {
		t.Errorf("merged Erases %d, want %d", mp.Device.Erases, want)
	}
	if want := a.FTL.MappingBytes + b.FTL.MappingBytes; mp.FTL.MappingBytes != want {
		t.Errorf("merged MappingBytes %d, want %d", mp.FTL.MappingBytes, want)
	}
	if mp.FTL.SectorBytes != a.FTL.SectorBytes {
		t.Errorf("merged SectorBytes %d, want shard 0's %d", mp.FTL.SectorBytes, a.FTL.SectorBytes)
	}
	wa, wb, w := a.FTL.Wear, b.FTL.Wear, mp.FTL.Wear
	if w.Blocks != wa.Blocks+wb.Blocks {
		t.Errorf("merged Wear.Blocks %d, want %d", w.Blocks, wa.Blocks+wb.Blocks)
	}
	if w.EraseMax != max(wa.EraseMax, wb.EraseMax) || w.EraseMin != min(wa.EraseMin, wb.EraseMin) {
		t.Errorf("merged erase range [%d,%d], want [%d,%d]", w.EraseMin, w.EraseMax,
			min(wa.EraseMin, wb.EraseMin), max(wa.EraseMax, wb.EraseMax))
	}
	if w.EraseP99 != max(wa.EraseP99, wb.EraseP99) {
		t.Errorf("merged EraseP99 %d, want the larger shard p99 %d", w.EraseP99, max(wa.EraseP99, wb.EraseP99))
	}
	if lo, hi := min(wa.EraseMean, wb.EraseMean), max(wa.EraseMean, wb.EraseMean); w.EraseMean < lo || w.EraseMean > hi {
		t.Errorf("merged EraseMean %v outside the shard means [%v,%v]", w.EraseMean, lo, hi)
	}
}

// The fleet report Shutdown returns merges every shard's report: its
// counts are the sums of the shards' counts, its fan-out histogram and
// queue-depth and chip-utilization summaries included, and merging leaves
// each shard's own report as its engine left it.
func TestFleetReportMergesShards(t *testing.T) {
	srv, err := server.New(server.Config{
		Stacks: buildStacks(t, 2, experiment.RunConfig{
			Kind:        experiment.KindFGM,
			Geometry:    ftltest.TinyGeometry(),
			LogicalFrac: 0.35,
		}),
		PreconditionFrac: 0.9,
		Namespaces: []server.NamespaceSpec{
			{Name: "busy", Placement: "0"},
			{Name: "calm", Placement: "1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"busy": 3000, "calm": 800} {
		c, err := server.Dial(srv.Addr(), name)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		stream := mixedStream(t, int64(c.Welcome.Sectors), int(c.Welcome.PageSectors), n, 7)
		if cr, err := c.RunRequests(stream, 8, nil); err != nil || cr.Errors != 0 {
			t.Fatalf("%s load: %+v, %v", name, cr, err)
		}
		c.Close()
	}
	fleet, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r0, r1 := srv.ShardReport(0), srv.ShardReport(1)
	counts := func(r *host.Report) [5]float64 {
		return [5]float64{float64(r.Completed), float64(r.Fanout.Count()), float64(r.QueueDepth.Count()), float64(r.ChipUtil.Count()), r.QueueDepth.MaxValue()}
	}
	c0, c1, cf := counts(r0), counts(r1), counts(fleet)
	if c0 == c1 {
		t.Fatalf("shards indistinguishable (%v); the checks below would be vacuous", c0)
	}
	for i, name := range []string{"completed", "fan-out samples", "queue-depth samples", "chip-utilization samples"} {
		if cf[i] != c0[i]+c1[i] {
			t.Errorf("fleet %s %v, want %v + %v", name, cf[i], c0[i], c1[i])
		}
	}
	if cf[4] != max(c0[4], c1[4]) {
		t.Errorf("fleet queue-depth peak %v, want the larger of %v and %v", cf[4], c0[4], c1[4])
	}
	if fleet.Fanout == r0.Fanout || fleet.HostLat == r0.HostLat {
		t.Error("fleet report shares histograms with shard 0's")
	}
	host.MergeReports([]*host.Report{r0, r1})
	if got := counts(r0); got != c0 || r0.Fanout.Count() != uint64(r0.Dispatched) {
		t.Errorf("merging changed shard 0's report: %v, was %v (%d dispatched)", got, c0, r0.Dispatched)
	}
}
