package server_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/ftltest"
	"espftl/internal/host"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

func testProfile(read float64) workload.Profile {
	return workload.Profile{
		Name:       "serve-test",
		SmallRatio: 0.6,
		SyncRatio:  0.5,
		ReadRatio:  read,
		SmallSizes: []int{1, 2, 3},
		LargeSizes: []int{4, 8},
		Zipf:       0.8,
	}
}

// mixedStream builds a deterministic namespace-relative request stream:
// synthetic reads/writes with trims and flushes woven in, ending with a
// flush so the final state is fully durable.
func mixedStream(t *testing.T, sectors int64, pageSectors, n int, seed uint64) []workload.Request {
	t.Helper()
	gen, err := workload.NewSynthetic(testProfile(0.35), sectors, pageSectors, seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	ps := int64(pageSectors)
	reqs := make([]workload.Request, 0, n+1)
	for i := 0; i < n; i++ {
		switch {
		case i%101 == 100:
			reqs = append(reqs, workload.Request{Op: workload.OpFlush})
		case i%97 == 96:
			lsn := rng.Int63n(sectors - ps)
			reqs = append(reqs, workload.Request{Op: workload.OpTrim, LSN: lsn, Sectors: 1 + rng.Intn(pageSectors)})
		default:
			reqs = append(reqs, gen.Next())
		}
	}
	return append(reqs, workload.Request{Op: workload.OpFlush})
}

// mirror replays an acknowledged namespace-relative stream into the
// model at its absolute addresses, flushes excluded (the caller decides
// when durability points apply).
func mirror(m *ftltest.Model, base int64, reqs []workload.Request) {
	for _, r := range reqs {
		switch r.Op {
		case workload.OpWrite:
			m.Write(base+r.LSN, r.Sectors, r.Sync)
		case workload.OpTrim:
			m.Trim(base+r.LSN, r.Sectors)
		}
	}
}

// completeFunc adapts a func to host.Completion; the scheduler recycles the
// record once Complete returns.
type completeFunc func(*host.Command)

func (f completeFunc) Complete(c *host.Command) { f(c) }

// TestLoopbackDifferential is the acceptance gate: two tenants drive
// >= 10k mixed operations at QD=8 over TCP, and the served device's
// final logical state must be sector-for-sector identical to the same
// two streams submitted directly through the host scheduler — and
// acceptable to the crash checker's reference model.
func TestLoopbackDifferential(t *testing.T) {
	const perNS = 5200
	srv, err := server.New(server.Config{
		Stacks:           buildStacks(t, 1, subStack),
		PreconditionFrac: 0.4,
		Namespaces:       []server.NamespaceSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if ca.Welcome.Sectors == 0 || ca.Welcome.Sectors != cb.Welcome.Sectors {
		t.Fatalf("namespace carve: a=%d b=%d sectors", ca.Welcome.Sectors, cb.Welcome.Sectors)
	}
	nsSectors := int64(ca.Welcome.Sectors)
	ps := int(ca.Welcome.PageSectors)

	streamA := mixedStream(t, nsSectors, ps, perNS, 41)
	streamB := mixedStream(t, nsSectors, ps, perNS, 42)

	var wg sync.WaitGroup
	var repA, repB *server.ClientReport
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); repA, errA = ca.RunRequests(streamA, 8, nil) }()
	go func() { defer wg.Done(); repB, errB = cb.RunRequests(streamB, 8, nil) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("client runs: a=%v b=%v", errA, errB)
	}
	for _, cr := range []*server.ClientReport{repA, repB} {
		if cr.Ops != int64(perNS+1) || cr.Errors != 0 || cr.Rejected != 0 {
			t.Fatalf("client report: %+v", cr)
		}
		if cr.Virt.Count() == 0 || cr.Wall.Count() == 0 {
			t.Fatal("client histograms empty")
		}
	}

	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("server report: %d errors %d rejected", rep.Errors, rep.Rejected)
	}
	if rep.Submitted != rep.Completed || rep.Completed != 2*(perNS+1) {
		t.Fatalf("server report: submitted %d completed %d (want %d)", rep.Submitted, rep.Completed, 2*(perNS+1))
	}
	if srv.Inflight() != 0 {
		t.Fatalf("%d in-flight slots leaked past drain", srv.Inflight())
	}

	servedFTL := srv.ShardFTL(0)
	if err := servedFTL.Check(); err != nil {
		t.Fatalf("served FTL invariants: %v", err)
	}

	// Reference run: same streams, same preconditioning, submitted
	// directly through the host scheduler with a deterministic
	// round-robin interleave of the two tenants.
	dev, f, logical, err := experiment.Build(experiment.RunConfig{Kind: experiment.KindSub})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	fill := int64(float64(logical)*0.4) / int64(g.SubpagesPerPage) * int64(g.SubpagesPerPage)
	if err := experiment.Precondition(f, g.SubpagesPerPage, fill); err != nil {
		t.Fatal(err)
	}
	dev.Clock().AdvanceTo(dev.DrainTime())
	baseA, baseB := int64(0), nsSectors
	sched, err := host.New(dev, f, host.Config{TickEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	sub := make(chan host.ExtSubmission)
	go func() {
		defer close(sub)
		window := make(chan struct{}, 16)
		send := func(base int64, r workload.Request) {
			r.LSN += base
			window <- struct{}{}
			sub <- host.ExtSubmission{Req: r, Complete: completeFunc(func(c *host.Command) {
				if c.Err != nil {
					t.Errorf("direct run error: %v", c.Err)
				}
				<-window
			})}
		}
		for i := 0; i < len(streamA) || i < len(streamB); i++ {
			if i < len(streamA) {
				send(baseA, streamA[i])
			}
			if i < len(streamB) {
				send(baseB, streamB[i])
			}
		}
	}()
	if _, err := sched.RunExternal(sub, nil); err != nil {
		t.Fatalf("direct run: %v", err)
	}

	mismatches := 0
	for lsn := int64(0); lsn < logical; lsn++ {
		sv, dv := servedFTL.VersionOf(lsn), f.VersionOf(lsn)
		if sv != dv {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("lsn %d: served version %d, direct version %d", lsn, sv, dv)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d sectors diverged between served and direct runs", mismatches, logical)
	}

	// And both agree with the reference model of the acknowledged
	// history: precondition fill, both streams, all flushed.
	m := ftltest.NewModel(logical)
	m.Write(0, int(fill), false)
	mirror(m, baseA, streamA)
	mirror(m, baseB, streamB)
	m.Flush()
	for lsn := int64(0); lsn < logical; lsn++ {
		if v := servedFTL.VersionOf(lsn); !m.Acceptable(lsn, v) {
			t.Fatalf("lsn %d: served version %d unacceptable, want %s", lsn, v, m.Describe(lsn))
		}
	}
}

// TestIntrospection drives load and checks the /stats and /metrics
// endpoints plus the in-band STAT command report coherent numbers.
func TestIntrospection(t *testing.T) {
	srv, err := server.New(server.Config{
		Stacks:     buildStacks(t, 1, subStack),
		HTTPAddr:   "127.0.0.1:0",
		Namespaces: []server.NamespaceSpec{{Name: "a"}, {Name: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	c, err := server.Dial(srv.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 1500
	stream := mixedStream(t, int64(c.Welcome.Sectors), int(c.Welcome.PageSectors), n, 7)
	if _, err := c.RunRequests(stream, 8, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.HTTPAddr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page server.StatsPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if len(page.Namespaces) != 2 {
		t.Fatalf("stats lists %d namespaces", len(page.Namespaces))
	}
	nsA := page.Namespaces[0]
	if nsA.Name != "a" {
		t.Fatalf("first namespace is %q", nsA.Name)
	}
	total := nsA.Reads + nsA.Writes + nsA.Trims + nsA.Flushes
	if total != int64(len(stream)) {
		t.Fatalf("namespace a counted %d ops, client sent %d", total, len(stream))
	}
	if nsA.Errors != 0 {
		t.Fatalf("namespace a reports %d errors", nsA.Errors)
	}
	if nsA.WAF <= 0 {
		t.Fatalf("namespace a WAF = %v (want > 0 after writes)", nsA.WAF)
	}
	if nsA.Latency.Count == 0 || nsA.Latency.P50NS <= 0 || nsA.Latency.P99NS < nsA.Latency.P50NS {
		t.Fatalf("namespace a latency summary malformed: %+v", nsA.Latency)
	}
	if b := page.Namespaces[1]; b.Reads+b.Writes != 0 {
		t.Fatalf("idle namespace b counted traffic: %+v", b)
	}

	resp2, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var mp server.MetricsPage
	if err := json.NewDecoder(resp2.Body).Decode(&mp); err != nil {
		t.Fatal(err)
	}
	if mp.Device.BytesWritten == 0 || mp.FTL.HostWriteReqs == 0 {
		t.Fatalf("metrics page empty: %+v", mp)
	}

	// In-band STAT must agree with /stats.
	raw, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var inband server.NamespaceStats
	if err := json.Unmarshal(raw, &inband); err != nil {
		t.Fatal(err)
	}
	if inband.Name != "a" || inband.Writes != nsA.Writes {
		t.Fatalf("in-band STAT diverges from /stats: %+v vs %+v", inband, nsA)
	}
}

// TestShutdownDrainsUnderLoad interrupts a run mid-stream: every
// accepted command must still complete (none dropped), and later
// submissions are refused, not lost.
func TestShutdownDrainsUnderLoad(t *testing.T) {
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
	stream := mixedStream(t, int64(c.Welcome.Sectors), int(c.Welcome.PageSectors), 20000, 13)

	started := make(chan struct{})
	finished := make(chan struct{})
	var cr *server.ClientReport
	go func() {
		defer close(finished)
		i := 0
		cr, _ = c.Run(func() (workload.Request, bool) {
			if i == 500 {
				close(started)
			}
			if i >= len(stream) {
				return workload.Request{}, false
			}
			r := stream[i]
			i++
			return r, true
		}, 8, server.RetryPolicy{}, nil)
	}()
	<-started
	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rep.Submitted != rep.Completed {
		t.Fatalf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed)
	}
	// The client had handed 500 requests to its issuer when drain began;
	// commands still buffered in the socket at the cut are legitimately
	// never admitted, so allow the in-flight window's worth of slack.
	if rep.Completed < 400 {
		t.Fatalf("only %d commands completed before drain", rep.Completed)
	}
	if srv.Inflight() != 0 {
		t.Fatalf("%d slots leaked", srv.Inflight())
	}
	// The client either finished its acked tail cleanly or observed the
	// connection close; both are orderly (its error is not checked). Every
	// reply it got that was not a SHUTTING_DOWN refusal acknowledges a
	// command the engines completed.
	<-finished
	if acked := cr.Ops - cr.Rejected; acked > rep.Completed {
		t.Fatalf("client saw %d commands acknowledged, server completed %d", acked, rep.Completed)
	}

	// A second shutdown returns the same report without hanging.
	rep2, err := srv.Shutdown()
	if err != nil || rep2 != rep {
		t.Fatalf("second shutdown: %v %p vs %p", err, rep2, rep)
	}
}

// TestUnknownNamespaceRefused: the handshake rejects a namespace the
// server does not export, without disturbing the engine.
func TestUnknownNamespaceRefused(t *testing.T) {
	srv, err := server.New(server.Config{Stacks: buildStacks(t, 1, subStack), Namespaces: []server.NamespaceSpec{{Name: "only"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if _, err := server.Dial(srv.Addr(), "nope"); err == nil {
		t.Fatal("dial to unknown namespace succeeded")
	}
	c, err := server.Dial(srv.Addr(), "only")
	if err != nil {
		t.Fatalf("dial to known namespace after refusal: %v", err)
	}
	c.Close()
}

// TestOutOfRangeRejected: per-namespace bounds are enforced at the
// server, with the error delivered on the offending tag only.
func TestOutOfRangeRejected(t *testing.T) {
	srv, err := server.New(server.Config{Stacks: buildStacks(t, 1, subStack), Namespaces: []server.NamespaceSpec{{Name: "a"}, {Name: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	c, err := server.Dial(srv.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reqs := []workload.Request{
		{Op: workload.OpWrite, LSN: 0, Sectors: 4},
		{Op: workload.OpWrite, LSN: int64(c.Welcome.Sectors), Sectors: 4}, // first sector past the end
		{Op: workload.OpWrite, LSN: math.MaxInt64, Sectors: 4},            // the end overflows int64
		{Op: workload.OpRead, LSN: 0, Sectors: 4},
	}
	var failed []workload.Request
	cr, err := c.RunRequests(reqs, 2, func(r server.Reply) {
		if r.Rep.Status != 0 {
			failed = append(failed, r.Req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ops != 4 || cr.Errors != 2 {
		t.Fatalf("report: %+v", cr)
	}
	if len(failed) != 2 || failed[0].LSN == 0 || failed[1].LSN == 0 {
		t.Fatalf("wrong requests failed: %+v", failed)
	}
}

// TestPacedServe: a realtime gate (at high speedup) still completes the
// stream and reports wall latencies at least as large as the virtual
// ones the gate maps them from.
func TestPacedServe(t *testing.T) {
	srv, err := server.New(server.Config{Stacks: buildStacks(t, 1, subStack), Speedup: 5e5})
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
	stream := mixedStream(t, int64(c.Welcome.Sectors), int(c.Welcome.PageSectors), 600, 3)
	cr, err := c.RunRequests(stream, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Ops != int64(len(stream)) || cr.Errors != 0 {
		t.Fatalf("paced run: %+v", cr)
	}
	if _, err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestCarve exercises the namespace layout arithmetic via the handshake
// geometry advertisements.
func TestCarve(t *testing.T) {
	srv, err := server.New(server.Config{
		Stacks: buildStacks(t, 1, subStack),
		Namespaces: []server.NamespaceSpec{
			{Name: "fixed", Sectors: 4096},
			{Name: "restA"},
			{Name: "restB"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	sizes := map[string]uint64{}
	for _, name := range []string{"fixed", "restA", "restB"} {
		c, err := server.Dial(srv.Addr(), name)
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		sizes[name] = c.Welcome.Sectors
		c.Close()
	}
	if sizes["fixed"] != 4096 {
		t.Fatalf("fixed namespace got %d sectors", sizes["fixed"])
	}
	if sizes["restA"] == 0 || sizes["restA"] != sizes["restB"] {
		t.Fatalf("equal-share namespaces diverge: %v", sizes)
	}

	if _, err := server.New(server.Config{
		Stacks:     buildStacks(t, 1, subStack),
		Namespaces: []server.NamespaceSpec{{Name: "x", Sectors: 1 << 40}},
	}); err == nil {
		t.Fatal("oversubscribed namespace accepted")
	}
	if _, err := server.New(server.Config{
		Stacks:     buildStacks(t, 1, subStack),
		Namespaces: []server.NamespaceSpec{{Name: "x"}, {Name: "x"}},
	}); err == nil {
		t.Fatal("duplicate namespace accepted")
	}
}

// TestNewRejectsBadSizes: the sizes in Config become slice and channel
// capacities and arrive from espserved's flags; a negative one must come
// back as a "server:" error from New, never as a makeslice/makechan panic.
// A server with no stacks has no shard to serve and is refused too.
func TestNewRejectsBadSizes(t *testing.T) {
	stacks := buildStacks(t, 1, subStack)
	for name, cfg := range map[string]server.Config{
		"Stacks":          {},
		"MaxInflight":     {Stacks: stacks, MaxInflight: -1},
		"PerConnInflight": {Stacks: stacks, PerConnInflight: -1},
		"WatchdogStalls":  {Stacks: stacks, WatchdogStalls: -1},
	} {
		_, err := server.New(cfg)
		if err == nil {
			t.Errorf("bad %s accepted", name)
			continue
		}
		if want := "server: " + name; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("bad %s: error %q, want prefix %q", name, err, want)
		}
	}
}

// subStack is the default served device: subFTL on the quick geometry,
// which is what espserved builds without policy flags.
var subStack = experiment.RunConfig{Kind: experiment.KindSub}

// buildStacks builds n identical device stacks of rc, one per shard.
func buildStacks(t testing.TB, n int, rc experiment.RunConfig) []server.ShardStack {
	t.Helper()
	stacks := make([]server.ShardStack, n)
	for i := range stacks {
		dev, f, logical, err := experiment.Build(rc)
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = server.ShardStack{Device: dev, FTL: f, LogicalSectors: logical}
	}
	return stacks
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

var _ = fmt.Sprintf // staticcheck appeasement when fmt is test-only
