package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/gc"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// serveWorkload drives the network service over loopback TCP from this
// process: `conns` connections, each its own namespace, each a closed
// loop of `depth` outstanding commands — how a block-device initiator
// behaves: a fixed queue depth, every slot waiting for its reply.
type serveWorkload struct {
	shards, conns, depth  int
	striped               bool // every namespace placed "*": page-striped over all shards
	flushEvery, trimEvery int  // weave a FLUSH / TRIM in every so many ops (0 = none)
	warm, timed           int  // ops per connection at the reference run length
}

// serveProfile is the mix BenchmarkServeLoopbackQD8 serves: Zipf 0.8
// addresses, 35 % reads, 60 % of writes small and half of those sync.
var serveProfile = workload.Profile{
	Name:       "serve-mix",
	SmallRatio: 0.6,
	SyncRatio:  0.5,
	ReadRatio:  0.35,
	SmallSizes: []int{1, 2, 3},
	LargeSizes: []int{4, 8},
	Zipf:       0.8,
}

// serveStack builds one shard's device stack as the repository's serve
// benchmarks do: quick geometry, retention errors off (at these op counts
// high-pass-count pages age out — an endurance effect, not serve-path
// cost), subFTL exporting 70 % of raw capacity.
func serveStack() (*stack, error) {
	devCfg := nand.DefaultConfig()
	devCfg.Geometry = experiment.QuickGeometry
	devCfg.DisableRetentionErrors = true
	dev, err := nand.NewDevice(devCfg, sim.NewClock(0))
	if err != nil {
		return nil, err
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	logical := int64(float64(g.TotalSubpages())*0.70) / ps * ps
	f, err := freshFTL(experiment.KindSub, dev, logical, gc.Options{})
	if err != nil {
		return nil, err
	}
	st := &stack{kind: experiment.KindSub, dev: dev, f: f, logical: logical}
	st.fill = int64(float64(logical)*servePrecondition) / ps * ps
	return st, nil
}

const servePrecondition = 0.4

// opStream is one connection's request stream: the profile generator over
// 60 % of the namespace (with no trims a full-space Zipf eventually
// validates every sector and GC falls off its utilisation cliff — a
// capacity regime, not serve-path cost) with flushes and page trims woven
// in at fixed cadences.
type opStream struct {
	gen                   workload.Generator
	rng                   *sim.RNG
	span, page            int64
	flushEvery, trimEvery int
	i                     int
}

func newOpStream(sectors, pageSectors int64, seed uint64, flushEvery, trimEvery int) (*opStream, error) {
	span := int64(float64(sectors)*0.6) / pageSectors * pageSectors
	gen, err := workload.NewSynthetic(serveProfile, span, int(pageSectors), seed)
	if err != nil {
		return nil, err
	}
	return &opStream{gen: gen, rng: sim.NewRNG(seed ^ 0x9e3779b97f4a7c15), span: span, page: pageSectors,
		flushEvery: flushEvery, trimEvery: trimEvery}, nil
}

// Next implements workload.Generator.
func (s *opStream) Next() workload.Request {
	s.i++
	switch {
	case s.flushEvery > 0 && s.i%s.flushEvery == 0:
		return workload.Request{Op: workload.OpFlush}
	case s.trimEvery > 0 && s.i%s.trimEvery == 0:
		lsn := s.rng.Int63n(s.span/s.page) * s.page
		return workload.Request{Op: workload.OpTrim, LSN: lsn, Sectors: int(s.page)}
	}
	return s.gen.Next()
}

// Name implements workload.Generator.
func (s *opStream) Name() string { return serveProfile.Name }

// benchConn is the benchmark's own wire client: one attached namespace.
type benchConn struct {
	c       net.Conn
	rr      *wire.ReplyReader
	welcome wire.Welcome
	stream  *opStream
	src     *spanSource // sender-side spans (traced only)
	rsrc    *spanSource // reader-side spans (traced only)
}

func dialBench(addr, ns string) (*benchConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteHello(c, wire.Hello{NS: ns}); err != nil {
		c.Close()
		return nil, err
	}
	wl, err := wire.ReadWelcome(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	if wl.Status != wire.StatusOK {
		c.Close()
		return nil, fmt.Errorf("server refused namespace %q: %s", ns, wl.Err)
	}
	return &benchConn{c: c, rr: wire.NewReplyReader(bufio.NewReader(c)), welcome: wl}, nil
}

// driveResult is what one connection observed over one drive.
type driveResult struct {
	ops, failed int64
	wallLat     []int64 // send -> reply, ns, one sample per op
	virtLat     []int64 // server-reported virtual service latency, ns
}

// drive sends n requests, at most depth outstanding, and waits for every
// reply. Each reply's status is checked. A slot index rides in the tag's
// low bits, so the reader finds the send time without a map.
func (bc *benchConn) drive(tr *tracer, n, depth int, opBase int64, atHalf func()) (*driveResult, error) {
	res := &driveResult{wallLat: make([]int64, 0, n), virtLat: make([]int64, 0, n)}
	base := time.Now()
	sentAt := make([]atomic.Int64, depth)
	opID := make([]atomic.Int64, depth)
	free := make(chan int, depth)
	for i := 0; i < depth; i++ {
		free <- i
	}
	readerErr := make(chan error, 1)
	go func() {
		for got := 0; got < n; got++ {
			r, err := bc.rr.Read()
			if err != nil {
				readerErr <- fmt.Errorf("reply stream after %d replies: %w", got, err)
				return
			}
			slot := int(r.Tag & 0xffff)
			if slot >= depth {
				readerErr <- fmt.Errorf("reply carries unknown tag %d", r.Tag)
				return
			}
			now := int64(time.Since(base))
			sent := sentAt[slot].Load()
			res.wallLat = append(res.wallLat, now-sent)
			res.virtLat = append(res.virtLat, int64(r.LatencyNS))
			if r.Status != wire.StatusOK {
				res.failed++
			}
			if bc.rsrc != nil {
				off := int64(base.Sub(bc.rsrc.base))
				bc.rsrc.call("client.rtt", off+sent, off+now, opID[slot].Load())
			}
			free <- slot
		}
		readerErr <- nil
	}()

	buf := make([]byte, 0, 64)
	var sendErr error
	for i := 0; i < n && sendErr == nil; i++ {
		var slot int
		select {
		case slot = <-free:
		case err := <-readerErr:
			return nil, err
		}
		if atHalf != nil && i == n/2 {
			atHalf()
		}
		req := bc.stream.Next()
		cmd, err := wire.CmdOf(uint64(i)<<16|uint64(slot), req)
		if err != nil {
			sendErr = err
			break
		}
		id := opBase + int64(i)
		if tr != nil {
			tr.register(req, id)
			opID[slot].Store(id)
		}
		t0 := int64(time.Since(base))
		sentAt[slot].Store(t0)
		if _, err := bc.c.Write(wire.AppendCmd(buf[:0], cmd)); err != nil {
			sendErr = fmt.Errorf("sending command %d: %w", i, err)
			break
		}
		res.ops++
		if bc.src != nil {
			off := int64(base.Sub(bc.src.base))
			bc.src.call("client.send", off+t0, off+int64(time.Since(base)), id)
		}
	}
	if sendErr != nil {
		// The reader is waiting for replies that will never be requested;
		// closing the socket ends it.
		bc.c.Close()
		<-readerErr
		return nil, sendErr
	}
	if err := <-readerErr; err != nil {
		return nil, err
	}
	return res, nil
}

// stat asks the server for the namespace's counters.
func (bc *benchConn) stat() (server.NamespaceStats, error) {
	var st server.NamespaceStats
	if err := wire.WriteCmd(bc.c, wire.Cmd{Op: wire.OpStat, Tag: ^uint64(0)}); err != nil {
		return st, err
	}
	r, err := bc.rr.Read()
	if err != nil {
		return st, err
	}
	if r.Status != wire.StatusOK {
		return st, fmt.Errorf("STAT failed: %s", r.Payload)
	}
	return st, json.Unmarshal(r.Payload, &st)
}

// driveAll runs one drive per connection concurrently and returns the
// wall time from the first send to the last reply. atHalf, when set, runs
// on the first connection's sender half-way through its ops.
func driveAll(conns []*benchConn, tr *tracer, n, depth int, atHalf func()) ([]*driveResult, time.Duration, error) {
	results := make([]*driveResult, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, bc := range conns {
		wg.Add(1)
		go func(i int, bc *benchConn) {
			defer wg.Done()
			var half func()
			if i == 0 {
				half = atHalf
			}
			results[i], errs[i] = bc.drive(tr, n, depth, int64(i)<<40, half)
		}(i, bc)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("connection %d: %w", i, err)
		}
	}
	return results, wall, nil
}

// fleetSnapshot reads every shard's FTL counters and drain horizon under
// the shard's guard, so the read is ordered against the engine.
func fleetSnapshot(srv *server.Server) ([]ftl.Stats, []sim.Time) {
	stats := make([]ftl.Stats, srv.ShardCount())
	drains := make([]sim.Time, srv.ShardCount())
	for i := range stats {
		g := srv.ShardFTL(i)
		g.Do(func() {
			stats[i] = g.Unwrap().Stats()
			drains[i] = srv.ShardDevice(i).DrainTime()
		})
	}
	return stats, drains
}

func (sv serveWorkload) run(rc *runCtx) (*rep, error) {
	r := &rep{dig: newDigest()}
	warm, timed := rc.count(sv.warm), rc.count(sv.timed)
	var phase *spanSource // whole-phase spans of the served run
	if rc.tr != nil {
		phase = rc.tr.source("serve")
	}
	t0 := time.Now()
	sp := phase.begin("build+precondition")
	stacks := make([]server.ShardStack, sv.shards)
	sts := make([]*stack, sv.shards)
	tfs := make([]*tracedFTL, sv.shards)
	for i := range stacks {
		st, err := serveStack()
		if err != nil {
			return nil, err
		}
		sts[i] = st
		f := st.f
		if rc.tr != nil {
			if tfs[i], err = newTracedFTL(st.f, rc.tr, fmt.Sprintf("ftl.sub.shard%d", i)); err != nil {
				return nil, err
			}
			f = tfs[i]
		}
		stacks[i] = server.ShardStack{Device: st.dev, FTL: f, LogicalSectors: st.logical}
	}
	specs := make([]server.NamespaceSpec, sv.conns)
	for i := range specs {
		specs[i].Name = fmt.Sprintf("t%d", i)
		if sv.striped {
			specs[i].Placement = "*"
		}
	}
	srv, err := server.New(server.Config{Stacks: stacks, Namespaces: specs, PreconditionFrac: servePrecondition})
	if err != nil {
		return nil, err
	}
	if err := srv.Serve(); err != nil {
		return nil, err
	}
	phase.end(sp)
	defer srv.Shutdown() // error paths; after the drain below it only returns the stored report
	conns := make([]*benchConn, sv.conns)
	for i := range conns {
		bc, err := dialBench(srv.Addr(), specs[i].Name)
		if err != nil {
			return nil, err
		}
		defer bc.c.Close()
		bc.stream, err = newOpStream(int64(bc.welcome.Sectors), int64(bc.welcome.PageSectors), rc.seed+uint64(i)+1, sv.flushEvery, sv.trimEvery)
		if err != nil {
			return nil, err
		}
		if rc.tr != nil {
			bc.src = rc.tr.source(fmt.Sprintf("client.conn%d.send", i))
			bc.rsrc = rc.tr.source(fmt.Sprintf("client.conn%d.recv", i))
		}
		conns[i] = bc
	}
	sp = phase.begin("warmup")
	if _, _, err := driveAll(conns, rc.tr, warm, sv.depth, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	phase.end(sp)
	setup := time.Since(t0)

	for _, tf := range tfs {
		tf.resume()
	}
	before, drain0 := fleetSnapshot(srv)
	var half []ftl.Stats
	var atHalf func()
	if rc.tr != nil {
		atHalf = func() { half, _ = fleetSnapshot(srv) }
	}
	// The traced run's untraced repetition is profiled: the profile sees
	// the server's goroutines from outside, and tracing is off, so the CPU
	// it attributes is the CPU the end-to-end metrics describe.
	var prof *cpuProfile
	if rc.layer != nil && rc.tr == nil {
		if prof, err = startCPUProfile(); err != nil {
			return nil, err
		}
	}
	sp = phase.begin("timed")
	m := startMeter()
	results, wall, err := driveAll(conns, rc.tr, timed, sv.depth, atHalf)
	var byLayer map[string]int64
	if prof != nil {
		var perr error
		if byLayer, rc.cpuProfile, perr = prof.stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, err
	}
	m.stop()
	phase.end(sp)
	after, drain1 := fleetSnapshot(srv)
	for _, tf := range tfs {
		tf.pause()
	}

	w := &window{wall: wall}
	var wallLat []int64
	for _, dr := range results {
		w.reqs += dr.ops
		w.failed += dr.failed
		wallLat = append(wallLat, dr.wallLat...)
		w.virtLat = append(w.virtLat, dr.virtLat...)
	}
	for i := range after {
		addStats(&w.stats, after[i].Sub(before[i]))
		if half != nil {
			addStats(&w.firstHalf, half[i].Sub(before[i]))
		}
		if d := drain1[i].Sub(drain0[i]); d > w.elapsed {
			// Shards are parallel worlds: the fleet's virtual time is the
			// slowest shard's.
			w.elapsed = d
		}
	}
	w.finishLat()

	var shed int64
	for _, bc := range conns {
		st, err := bc.stat()
		if err != nil {
			return nil, fmt.Errorf("STAT: %w", err)
		}
		shed += st.ShedCommands
	}
	sp = phase.begin("shutdown")
	t1 := time.Now()
	fleet, err := srv.Shutdown()
	drain := time.Since(t1)
	phase.end(sp)
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if fleet.Submitted != fleet.Completed || fleet.Errors != 0 || fleet.Rejected != 0 {
		return nil, fmt.Errorf("drain dropped work: submitted %d, completed %d, errors %d, rejected %d",
			fleet.Submitted, fleet.Completed, fleet.Errors, fleet.Rejected)
	}
	r.addWindow(w, setup, m)
	r.sub = w

	if rc.layer == nil {
		return r, nil
	}
	l := rc.layer
	ops := float64(w.reqs)
	if rc.tr == nil {
		// The untraced repetition supplies what tracing would perturb.
		slices.Sort(wallLat)
		l["client.lat_p50_us"] = float64(percentile(wallLat, 0.50)) / 1e3
		l["client.lat_p99_us"] = float64(percentile(wallLat, 0.99)) / 1e3
		pct, v := tailPercentile(wallLat)
		l["client.lat_tail_pct"], l["client.lat_tail_us"] = pct, float64(v)/1e3
		l["client.lat_samples"] = float64(len(wallLat))
		ladder(l, byLayer, m.u.cpu(), ops)
		l["server.sys_cpu_share"] = ratio(float64(m.u.sys), float64(m.u.cpu()))
		l["server.ctx_switches_per_req"] = ratio(float64(m.u.ctxSwitches), ops)
		l["server.shed_ops"] = float64(shed)
		l["server.drain_ms"] = float64(drain) / 1e6
		var frags int64
		for i := 0; i < srv.ShardCount(); i++ {
			frags += srv.ShardReport(i).Submitted
		}
		// The engines' reports cover warm-up too, so the ratio is over
		// every op the clients sent.
		l["server.frags_per_req"] = ratio(float64(frags), float64(sv.conns*(warm+timed)))
		return r, nil
	}
	cs := callStatsOf(tfs...)
	l["server.engine_ftl_share"] = ratio(float64(cs.busyNS), float64(wall)*float64(sv.shards))
	if err := nandLayer(l, sts[0].dev, w, cs.busyNS); err != nil {
		return nil, err
	}
	if err := ftlLayer(rc, sts[0], w, cs, tfs[0].src); err != nil {
		return nil, err
	}
	fresh, err := newOpStream(int64(conns[0].welcome.Sectors), int64(conns[0].welcome.PageSectors), rc.seed+1, sv.flushEvery, sv.trimEvery)
	if err != nil {
		return nil, err
	}
	l["workload.gen_ns_per_req"] = measureGen(fresh, rc.count(microIters))
	return r, nil
}

// ladder accounts for the served CPU per op layer by layer. Each rung is
// what the CPU profile of the timed window sampled in that layer (see
// layerOf); cpu is the process's own count (getrusage) over the same
// window, and what it holds beyond the rungs — the Go scheduler and
// collector running with no layer's frame on the stack, and whatever the
// profile did not sample — is reported as unattributed, never spread over
// the rungs.
func ladder(l map[string]float64, byLayer map[string]int64, cpu time.Duration, ops float64) {
	us := func(layer string) float64 { return ratio(float64(byLayer[layer])/1e3, ops) }
	l["client.cpu_us_per_req"] = us(layerClient)
	l["server.self_us_per_req"] = us(layerServer)
	l["host.self_ns_per_req"] = us(layerHost) * 1e3
	l["server.ftl_us_per_req"] = us(layerFTL)
	rungs := us(layerClient) + us(layerServer) + us(layerHost) + us(layerFTL)
	l["server.unattributed_us_per_req"] = ratio(float64(cpu)/1e3, ops) - rungs
}

// addStats accumulates the counters the benchmark reads from one shard's
// window into the fleet's.
func addStats(dst *ftl.Stats, s ftl.Stats) {
	dst.HostWriteReqs += s.HostWriteReqs
	dst.HostReadReqs += s.HostReadReqs
	dst.HostTrimReqs += s.HostTrimReqs
	dst.HostSectorsWritten += s.HostSectorsWritten
	dst.HostSectorsRead += s.HostSectorsRead
	dst.SmallWriteReqs += s.SmallWriteReqs
	dst.SmallHostBytes += s.SmallHostBytes
	dst.SmallFlashBytes += s.SmallFlashBytes
	dst.RMWOps += s.RMWOps
	dst.GCInvocations += s.GCInvocations
	dst.GCMovedSectors += s.GCMovedSectors
	dst.GCSteps += s.GCSteps
	dst.GCPagesCopied += s.GCPagesCopied
	dst.GCPreemptions += s.GCPreemptions
	dst.RoundAdvances += s.RoundAdvances
	dst.SubShifts += s.SubShifts
	dst.Evictions += s.Evictions
	dst.RetentionMoves += s.RetentionMoves
	dst.RegionReclaims += s.RegionReclaims
	dst.BufferAbsorbed += s.BufferAbsorbed
	dst.ReadBufferHits += s.ReadBufferHits
	dst.MappingBytes += s.MappingBytes
	dst.SectorBytes = s.SectorBytes
	dst.Device.PageReads += s.Device.PageReads
	dst.Device.SubpageReads += s.Device.SubpageReads
	dst.Device.PagePrograms += s.Device.PagePrograms
	dst.Device.SubPrograms += s.Device.SubPrograms
	dst.Device.Erases += s.Device.Erases
	dst.Device.BytesWritten += s.Device.BytesWritten
	dst.Device.BytesRead += s.Device.BytesRead
	dst.Device.ReadFailures += s.Device.ReadFailures
}
