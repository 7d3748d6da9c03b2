// Command espserved serves a simulated SSD as a network block device:
// the wire protocol of internal/server on a TCP listener, with optional
// HTTP introspection, multi-tenant namespaces, and real-time pacing.
//
// Examples:
//
//	espserved -addr 127.0.0.1:9750 -http 127.0.0.1:9751
//	espserved -ftl subFTL -precondition 0.4 -ns tenant-a=262144,tenant-b
//	espserved -speedup 1 -conn-inflight 16 -max-inflight 128
//	espserved -shards 4 -ns pinned=65536@2,striped@*,hashed
//
// -shards runs N independent device shards (one FTL + NAND device +
// engine goroutine each). A namespace spec may carry a placement
// suffix: @N pins it to shard N, @* stripes it page-by-page across all
// shards (FLUSH becomes a cross-shard barrier), and no suffix routes by
// a consistent hash of the name.
//
// SIGINT/SIGTERM drains: the listener closes, every in-flight command
// completes and is answered, the engines retire, a final merged report
// prints, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9750", "TCP listen address for the block protocol")
	httpAddr := flag.String("http", "", "HTTP listen address for /stats and /metrics (empty = off)")
	pprofFlag := flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on the -http listener")
	policy := experiment.BindPolicyFlags(flag.CommandLine, "FTL to serve: cgmFTL, fgmFTL or subFTL", "use the full-size device geometry")
	flag.Float64Var(&policy.LogicalFrac, "logical-frac", 0.70, "exported fraction of raw capacity")
	precondition := flag.Float64("precondition", 0, "sequentially prefill this fraction of the logical space before serving")
	speedup := flag.Float64("speedup", 0, "virtual nanoseconds per wall nanosecond (0 = as fast as possible)")
	shards := flag.Int("shards", 1, "independent device shards, each with its own FTL, NAND device and engine goroutine")
	nsSpec := flag.String("ns", "default", "namespaces: comma-separated name[=sectors][@shard|@*]; unsized names split the remainder equally, @* stripes across all shards")
	connInflight := flag.Int("conn-inflight", 32, "per-connection in-flight command cap")
	maxInflight := flag.Int("max-inflight", 256, "global in-flight budget across connections")
	writeTimeout := flag.Duration("write-timeout", 5*time.Second, "per-flush reply deadline before a client is declared dead")
	admitTimeout := flag.Duration("admit-timeout", 0, "admission wait before a command is refused RETRYABLE (0 = wait forever)")
	watchdog := flag.Duration("watchdog", time.Second, "engine watchdog sampling interval (negative = off)")
	watchdogStalls := flag.Int("watchdog-stalls", 5, "progress-free watchdog intervals before all namespaces are fenced")
	flag.Parse()

	specs, err := parseNamespaces(*nsSpec)
	if err != nil {
		fatal(err)
	}
	if *pprofFlag && *httpAddr == "" {
		fatal(fmt.Errorf("-pprof requires -http"))
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be positive, got %d", *shards))
	}
	// Every shard is the device espsim simulates with the same policy
	// flags: experiment.Build is the call experiment.Run makes.
	stacks := make([]server.ShardStack, *shards)
	for i := range stacks {
		dev, f, logical, err := experiment.Build(*policy)
		if err != nil {
			fatal(err)
		}
		stacks[i] = server.ShardStack{Device: dev, FTL: f, LogicalSectors: logical}
	}
	cfg := server.Config{
		Addr:             *addr,
		HTTPAddr:         *httpAddr,
		EnablePprof:      *pprofFlag,
		Stacks:           stacks,
		Arbitration:      policy.Arbitration,
		PreconditionFrac: *precondition,
		Speedup:          *speedup,
		Namespaces:       specs,
		PerConnInflight:  *connInflight,
		MaxInflight:      *maxInflight,
		WriteTimeout:     *writeTimeout,
		AdmitTimeout:     *admitTimeout,
		WatchdogInterval: *watchdog,
		WatchdogStalls:   *watchdogStalls,
	}

	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	if err := srv.Serve(); err != nil {
		fatal(err)
	}
	g := srv.ShardDevice(0).Geometry()
	fmt.Printf("espserved: %s x%d shards on %s (%d-sector pages, %.1f GiB raw per shard)\n",
		policy.Kind, srv.ShardCount(), srv.Addr(), g.SubpagesPerPage,
		float64(g.TotalSubpages())*float64(g.SubpageBytes)/(1<<30))
	if h := srv.HTTPAddr(); h != "" {
		fmt.Printf("espserved: introspection at http://%s/stats and /metrics\n", h)
		if *pprofFlag {
			fmt.Printf("espserved: profiling at http://%s/debug/pprof/\n", h)
		}
	}
	if *speedup > 0 {
		fmt.Printf("espserved: pacing virtual time at %gx wall clock\n", *speedup)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigc
	fmt.Printf("espserved: %s, draining\n", sig)

	rep, err := srv.Shutdown()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("espserved: drained %d commands (%d errors, %d rejected), %d background ops\n",
		rep.Completed, rep.Errors, rep.Rejected, rep.Background)
	if rep.Submitted != rep.Completed {
		fatal(fmt.Errorf("drain dropped commands: submitted %d completed %d", rep.Submitted, rep.Completed))
	}
}

// parseNamespaces turns "name[=sectors][@shard|@*],..." into specs; an
// empty size lets the server split the remaining logical space equally,
// and the placement suffix pins (@N), stripes (@*), or hashes (absent).
func parseNamespaces(s string) ([]server.NamespaceSpec, error) {
	var specs []server.NamespaceSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var sp server.NamespaceSpec
		var placed bool
		part, sp.Placement, placed = strings.Cut(part, "@")
		if placed && sp.Placement == "" {
			return nil, fmt.Errorf("namespace %q: empty placement after @", part)
		}
		name, size, sized := strings.Cut(part, "=")
		sp.Name = name
		if sized {
			n, err := strconv.ParseInt(size, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("namespace %q: bad size %q", name, size)
			}
			sp.Sectors = n
		}
		specs = append(specs, sp)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no namespaces in %q", s)
	}
	return specs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "espserved:", err)
	os.Exit(1)
}
