// Command espclient drives an espserved instance over TCP: it replays a
// trace file or generates a synthetic profile, runs it closed-loop at a
// target queue depth, and prints an espsim-style latency report from the
// client's side of the wire — both the server-reported virtual service
// times and the wall-clock round trips this client observed.
//
// Examples:
//
//	espclient -addr 127.0.0.1:9750 -profile varmail -n 50000 -qd 8
//	espclient -trace workload.trace -qd 16 -ns tenant-a
//	espclient -profile ycsb -n 10000 -stat
//	espclient -conns 4 -qd 8 -n 100000
//
// -conns opens N parallel connections that split the request budget;
// against a sharded espserved this is what drives more than one engine
// at once. The report merges all connections.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"espftl/internal/metrics"
	"espftl/internal/server"
	"espftl/internal/trace"
	"espftl/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9750", "espserved address")
	ns := flag.String("ns", "default", "namespace to attach to")
	profile := flag.String("profile", "varmail", "workload profile: sysbench, varmail, postmark, ycsb, tpc-c")
	rsmall := flag.Float64("rsmall", -1, "use the sweep profile with this r_small (overrides -profile)")
	rsynch := flag.Float64("rsynch", 1.0, "r_synch for the sweep profile")
	tracePath := flag.String("trace", "", "replay this text trace file instead of a profile")
	n := flag.Int("n", 50000, "request count (profiles only)")
	qd := flag.Int("qd", 8, "closed-loop queue depth per connection")
	conns := flag.Int("conns", 1, "parallel connections splitting the request budget")
	seed := flag.Uint64("seed", 1, "workload seed")
	span := flag.Float64("span", 1.0, "fraction of the namespace the synthetic stream touches")
	stat := flag.Bool("stat", false, "print the namespace's /stats JSON after the run")
	connectTimeout := flag.Duration("connect-timeout", 5*time.Second, "dial and handshake deadline")
	deadline := flag.Duration("deadline", 0, "per-request deadline (0 = none); a request outliving it reconnects and replays")
	flag.Parse()

	c, err := server.DialTimeout(*addr, *ns, *connectTimeout)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	wl := c.Welcome
	fmt.Printf("espclient: %q on %s: %d sectors of %d B, %d-sector pages, window %d\n",
		*ns, *addr, wl.Sectors, wl.SectorBytes, wl.PageSectors, wl.MaxInflight)

	if *conns < 1 {
		fatal(fmt.Errorf("-conns must be at least 1"))
	}
	// nextFor builds worker i's request stream; the budget splits across
	// the -conns parallel connections.
	var (
		nextFor func(i int) func() (workload.Request, bool)
		kind    string
	)
	if *tracePath != "" {
		reqs, err := trace.ReadFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		// The server owns the clock: idle-gap records cannot be replayed
		// over the wire and are skipped. With -conns > 1 the trace deals
		// round-robin across connections — aggregate load, not order,
		// is what survives the split.
		gaps := 0
		nextFor = func(w int) func() (workload.Request, bool) {
			i := w
			return func() (workload.Request, bool) {
				for i < len(reqs) {
					r := reqs[i]
					i += *conns
					if r.Op == workload.OpAdvance {
						gaps++
						continue
					}
					return r, true
				}
				return workload.Request{}, false
			}
		}
		kind = fmt.Sprintf("trace %s (%d requests)", *tracePath, len(reqs))
		defer func() {
			if gaps > 0 {
				fmt.Printf("  skipped           %d idle-gap records (server paces the clock)\n", gaps)
			}
		}()
	} else {
		prof, err := workload.Select(*profile, *rsmall, *rsynch)
		if err != nil {
			fatal(err)
		}
		ps := int64(wl.PageSectors)
		sectors := int64(float64(wl.Sectors)**span) / ps * ps
		if sectors <= 0 {
			fatal(fmt.Errorf("namespace too small for -span %g", *span))
		}
		nextFor = func(w int) func() (workload.Request, bool) {
			gen, err := workload.NewSynthetic(prof, sectors, int(ps), *seed+uint64(w))
			if err != nil {
				fatal(err)
			}
			left := *n / *conns
			if w < *n%*conns {
				left++
			}
			return func() (workload.Request, bool) {
				if left <= 0 {
					return workload.Request{}, false
				}
				left--
				return gen.Next(), true
			}
		}
		kind = fmt.Sprintf("%s (%d requests)", prof.Name, *n)
	}

	run := func(cl *server.Client, w int) (*server.ClientReport, error) {
		return cl.Run(nextFor(w), *qd, server.RetryPolicy{
			ConnectTimeout: *connectTimeout,
			RequestTimeout: *deadline,
			MaxAttempts:    8,
			MaxReconnects:  5,
			Seed:           *seed + uint64(w),
		}, nil)
	}

	start := time.Now()
	crs := make([]*server.ClientReport, *conns)
	errs := make([]error, *conns)
	var wg sync.WaitGroup
	for w := 1; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cw, err := server.DialTimeout(*addr, *ns, *connectTimeout)
			if err != nil {
				errs[w] = err
				return
			}
			defer cw.Close()
			crs[w], errs[w] = run(cw, w)
		}(w)
	}
	crs[0], errs[0] = run(c, 0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	cr := mergeReports(crs)
	wall := time.Since(start)

	if *conns > 1 {
		fmt.Printf("espclient: %s at QD %d on %d connections\n", kind, *qd, *conns)
	} else {
		fmt.Printf("espclient: %s at QD %d\n", kind, *qd)
	}
	fmt.Printf("  completed         %d in %v wall -> %.0f ops/s\n",
		cr.Ops, wall.Round(time.Millisecond), float64(cr.Ops)/wall.Seconds())
	if cr.Errors > 0 || cr.Rejected > 0 {
		fmt.Printf("  errors            %d errored, %d rejected\n", cr.Errors, cr.Rejected)
	}
	if cr.Retries > 0 || cr.Reconnects > 0 {
		fmt.Printf("  resilience        %d retries, %d reconnects\n", cr.Retries, cr.Reconnects)
	}
	printLatency("service (virtual)", cr.Virt)
	printLatency("round trip (wall)", cr.Wall)

	if *stat {
		js, err := c.Stat()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  namespace stats   %s\n", js)
	}
	if cr.Errors > 0 {
		os.Exit(1)
	}
}

// mergeReports folds the per-connection reports into one: counters sum,
// latency histograms merge bucket-by-bucket.
func mergeReports(crs []*server.ClientReport) *server.ClientReport {
	out := crs[0]
	for _, cr := range crs[1:] {
		out.Ops += cr.Ops
		out.Errors += cr.Errors
		out.Rejected += cr.Rejected
		out.Retries += cr.Retries
		out.Reconnects += cr.Reconnects
		for st, n := range cr.Statuses {
			out.Statuses[st] += n
		}
		out.Virt.Merge(cr.Virt)
		out.Wall.Merge(cr.Wall)
	}
	return out
}

func printLatency(label string, h *metrics.Histogram) {
	s := h.Summary()
	fmt.Printf("  %-17s mean %v  p50 %v  p95 %v  p99 %v  max %v\n",
		label, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "espclient:", err)
	os.Exit(1)
}
