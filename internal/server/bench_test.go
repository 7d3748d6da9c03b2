package server_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"espftl/internal/core"
	"espftl/internal/experiment"
	"espftl/internal/metrics"
	"espftl/internal/nand"
	"espftl/internal/server"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// BenchmarkServeLoopbackQD8 measures the served path end to end: wire
// framing, admission, the engine round-trip, and reply streaming over a
// loopback TCP connection at queue depth 8, as fast as the device can
// go. Reported alongside ns/op: throughput in ops/s and the client-
// observed wall-clock p99.
//
// Retention errors are disabled: at benchmark op counts the subpage
// region's high-pass-count pages wear to retention capabilities below
// the scrubber's horizon and reads start failing — a device-endurance
// effect the lifetime experiments study, not serve-path overhead.
func BenchmarkServeLoopbackQD8(b *testing.B) {
	devCfg := nand.DefaultConfig()
	devCfg.Geometry = experiment.QuickGeometry
	devCfg.DisableRetentionErrors = true
	dev, err := nand.NewDevice(devCfg, sim.NewClock(0))
	if err != nil {
		b.Fatal(err)
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	logical := int64(float64(g.TotalSubpages())*0.70) / ps * ps
	sc := core.DefaultConfig(logical)
	sc.GCReserveBlocks = g.Chips() + 4
	f, err := core.New(dev, sc)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Stacks:           []server.ShardStack{{Device: dev, FTL: f, LogicalSectors: logical}},
		PreconditionFrac: 0.4,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		b.Fatal(err)
	}
	c, err := server.Dial(srv.Addr(), "default")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// The stream stays inside 60 % of the namespace: with no trims in the
	// mix, a full-space Zipf eventually marks every logical sector valid
	// and garbage collection falls off its utilization cliff — a capacity
	// regime the lifetime experiments study, not a serve-path cost.
	span := int64(float64(c.Welcome.Sectors)*0.6) / int64(c.Welcome.PageSectors) * int64(c.Welcome.PageSectors)
	gen, err := workload.NewSynthetic(testProfile(0.35), span, int(c.Welcome.PageSectors), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	var firstErr []byte
	cr, err := c.Run(func() (workload.Request, bool) {
		if n >= b.N {
			return workload.Request{}, false
		}
		n++
		return gen.Next(), true
	}, 8, server.RetryPolicy{}, func(r server.Reply) {
		if r.Rep.Status != 0 && firstErr == nil {
			// The payload aliases the client's decode buffer; keep a copy.
			firstErr = append([]byte(nil), r.Rep.Payload...)
		}
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if cr.Errors != 0 {
		b.Fatalf("%d errored ops (first: %s)", cr.Errors, firstErr)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "ops/s")
	}
	b.ReportMetric(float64(cr.Wall.Percentile(0.99)), "p99-ns")
	if _, err := srv.Shutdown(); err != nil {
		b.Fatal(err)
	}
}

// benchStack builds one shard's device stack the way the QD8 loopback
// benchmark does: quick geometry with retention errors disabled (an
// endurance effect, not serve-path overhead) and the subpage FTL at 70%
// logical export.
func benchStack(b *testing.B) server.ShardStack {
	devCfg := nand.DefaultConfig()
	devCfg.Geometry = experiment.QuickGeometry
	devCfg.DisableRetentionErrors = true
	dev, err := nand.NewDevice(devCfg, sim.NewClock(0))
	if err != nil {
		b.Fatal(err)
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	logical := int64(float64(g.TotalSubpages())*0.70) / ps * ps
	sc := core.DefaultConfig(logical)
	sc.GCReserveBlocks = g.Chips() + 4
	f, err := core.New(dev, sc)
	if err != nil {
		b.Fatal(err)
	}
	return server.ShardStack{Device: dev, FTL: f, LogicalSectors: logical}
}

// BenchmarkServeShardSweep measures fleet scale-out: the same served
// path as BenchmarkServeLoopbackQD8 across 1, 2, 4, and 8 device
// shards, one pinned tenant per shard, one connection per tenant at
// queue depth 8, b.N ops split evenly. Each shard owns its own FTL,
// device, and engine goroutine, so on a machine with enough cores
// throughput should scale near-linearly with the shard count; reported
// ops/s is the fleet total and p99-ns the wall-clock p99 merged across
// every tenant's connection. On a single-core runner the sweep instead
// documents the scale-out overhead (fan-out adds goroutine handoffs,
// not throughput).
func BenchmarkServeShardSweep(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			stacks := make([]server.ShardStack, shards)
			specs := make([]server.NamespaceSpec, shards)
			for i := range stacks {
				stacks[i] = benchStack(b)
				// One unsized tenant pinned per shard: each takes its
				// shard's whole logical space.
				specs[i] = server.NamespaceSpec{
					Name:      fmt.Sprintf("t%d", i),
					Placement: strconv.Itoa(i),
				}
			}
			srv, err := server.New(server.Config{
				Stacks:           stacks,
				Namespaces:       specs,
				PreconditionFrac: 0.4,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Serve(); err != nil {
				b.Fatal(err)
			}
			clients := make([]*server.Client, shards)
			gens := make([]*workload.Synthetic, shards)
			for i := range clients {
				c, err := server.Dial(srv.Addr(), specs[i].Name)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				span := int64(float64(c.Welcome.Sectors)*0.6) / int64(c.Welcome.PageSectors) * int64(c.Welcome.PageSectors)
				gen, err := workload.NewSynthetic(testProfile(0.35), span, int(c.Welcome.PageSectors), uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				clients[i], gens[i] = c, gen
			}
			perShard := b.N / shards
			b.ResetTimer()
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				firstErr error
				errs     int64
				wall     = metrics.NewHistogram()
			)
			for i := range clients {
				c, gen := clients[i], gens[i]
				quota := perShard
				if i == 0 {
					quota += b.N - perShard*shards
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := 0
					cr, err := c.Run(func() (workload.Request, bool) {
						if n >= quota {
							return workload.Request{}, false
						}
						n++
						return gen.Next(), true
					}, 8, server.RetryPolicy{}, nil)
					mu.Lock()
					defer mu.Unlock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if cr != nil {
						errs += cr.Errors
						wall.Merge(cr.Wall)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if firstErr != nil {
				b.Fatal(firstErr)
			}
			if errs != 0 {
				b.Fatalf("%d errored ops", errs)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "ops/s")
			}
			b.ReportMetric(float64(wall.Percentile(0.99)), "p99-ns")
			if _, err := srv.Shutdown(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
