// Package server exports a simulated SSD fleet as a network block
// device: an NBD-style length-prefixed TCP protocol (internal/wire) in
// front of one or more sharded host schedulers, with multi-tenant
// namespaces, admission control, and live HTTP introspection.
//
// # Architecture
//
// The simulator's backbone is a deterministic, single-threaded world:
// one goroutine owns an FTL, its device, and its virtual clock. The
// server scales out by running N such worlds — shards — side by side,
// each with its own engine goroutine, admission budget, and stall
// watchdog; the one-simulation-one-goroutine invariant holds per shard.
// Namespaces are routed to shards at carve time (consistent hash,
// explicit pin, or page striping across all shards); connection
// goroutines only parse frames, enforce admission, and forward
// shard-local fragments. Completions come back as per-command callbacks
// on the owning engine goroutines, joined per client command, and
// handed to per-connection writer goroutines through buffered channels
// sized so no engine can ever block on a slow or dead client.
//
// # Pacing
//
// Each shard's sim.Gate maps its virtual clock onto the wall clock at a
// configurable speedup, so the simulated devices' latencies shape the
// latencies clients observe; speedup 0 serves as fast as possible.
//
// # Backpressure
//
// Admission is layered semaphores: a per-connection in-flight cap
// (advertised in the handshake) and a per-shard budget across tenants.
// A reader that cannot acquire its slots stops reading its socket,
// pushing back through TCP flow control. Multi-shard commands acquire
// shard slots in ascending shard order, so admission cannot deadlock.
//
// # Drain
//
// Shutdown stops accepting, interrupts idle readers, waits for every
// in-flight command to complete and be answered, then closes each
// shard's submission channel so its engine retires; the per-shard
// reports merge into one fleet report. No accepted command is dropped.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/nand"
)

// Config parameterizes a server.
type Config struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// HTTPAddr, when non-empty, serves /stats and /metrics there.
	HTTPAddr string

	// EnablePprof additionally registers the net/http/pprof handlers
	// under /debug/pprof/ on the introspection listener, for live CPU
	// and heap profiling of a serving process. Requires HTTPAddr; off by
	// default because the profile endpoints expose internals and cost
	// CPU while sampling.
	EnablePprof bool

	// Shards is the number of independent device shards (default 1).
	// Every shard gets an identically configured device stack; each
	// runs its own FTL, virtual clock, and engine goroutine.
	Shards int

	// Stack describes the device stack every shard assembles, in the
	// simulator's own terms: it goes to experiment.Build as is, so a
	// served shard and an espsim run with the same policy flags are the
	// same device. The server reads what Build reads (Kind, default
	// subFTL; Geometry; LogicalFrac; the GC, erase-policy, lifetime and
	// fault knobs) plus Arbitration for the shard's host scheduler; the
	// workload and replay fields have no meaning here. Ignored, except
	// for Arbitration, when Stacks supplies pre-built stacks.
	Stack experiment.RunConfig
	// PreconditionFrac sequentially prefills this fraction of each
	// shard's logical space before serving, bringing the FTLs to steady
	// state.
	PreconditionFrac float64

	// Speedup paces virtual time at this many virtual nanoseconds per
	// wall nanosecond; 0 serves as fast as possible.
	Speedup float64

	// Namespaces carves the logical space (default: one namespace
	// "default"; with multiple shards it lands on its hash shard).
	Namespaces []NamespaceSpec

	// PerConnInflight caps commands in flight per connection (default
	// 32); MaxInflight is each shard's admission budget across
	// connections (default 256).
	PerConnInflight int
	MaxInflight     int

	// WriteTimeout bounds one reply flush to a client socket; a
	// connection that cannot absorb its replies within it is declared
	// dead and drained without blocking the engines (default 5s).
	WriteTimeout time.Duration

	// AdmitTimeout bounds how long a reader waits for its admission
	// slots before answering RETRYABLE instead; 0 blocks forever (pure
	// TCP backpressure, the pre-degraded-mode behavior).
	AdmitTimeout time.Duration

	// WatchdogInterval is the per-shard engine-stall watchdog's sampling
	// period (default 1s; negative disables). WatchdogStalls consecutive
	// samples with commands in flight but no completion progress fence
	// that shard's namespaces (default 5). Raise the interval when
	// pacing with a large slow-down factor: a legitimately gated command
	// must complete within Interval×Stalls of wall time.
	WatchdogInterval time.Duration
	WatchdogStalls   int

	// Stacks, when non-empty, serves these pre-built device stacks —
	// one per shard — instead of assembling them; Shards must be unset
	// or equal to len(Stacks). The one hook for serving devices with
	// armed fault injectors or crash survivors, single-shard included.
	Stacks []ShardStack
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Stack.Kind == "" {
		c.Stack.Kind = experiment.KindSub
	}
	if c.PerConnInflight == 0 {
		c.PerConnInflight = 32
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = time.Second
	}
	if c.WatchdogStalls == 0 {
		c.WatchdogStalls = 5
	}
	return c
}

// Server is one served fleet: N shard engines running the host
// scheduler's external mode, an accept loop, and per-connection
// reader/writer pairs.
type Server struct {
	cfg    Config
	shards []*shard
	nss    []*namespace

	sectorBytes int
	pageSectors int

	ln     net.Listener
	httpLn net.Listener
	httpSv *http.Server

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup

	draining atomic.Bool
	served   atomic.Bool
	// drained closes when the first Shutdown caller has fully retired
	// the engines and published the merged report.
	drained   chan struct{}
	rep       *host.Report
	engineErr error
}

// New assembles the shard device stacks and carves the namespaces;
// Serve starts them.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// The sizes below become slice and channel capacities; they arrive
	// from command-line flags, so a bad one is an error, not a panic.
	for _, v := range []struct {
		name string
		n    int
	}{
		{"Shards", cfg.Shards},
		{"PerConnInflight", cfg.PerConnInflight},
		{"MaxInflight", cfg.MaxInflight},
		{"WatchdogStalls", cfg.WatchdogStalls},
	} {
		if v.n < 1 {
			return nil, fmt.Errorf("server: %s must be positive, got %d", v.name, v.n)
		}
	}
	stacks := cfg.Stacks
	if len(stacks) > 0 {
		if cfg.Shards != 1 && cfg.Shards != len(stacks) {
			return nil, fmt.Errorf("server: Shards=%d but %d stacks supplied", cfg.Shards, len(stacks))
		}
		cfg.Shards = len(stacks)
	}
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		var stack *ShardStack
		if len(stacks) > 0 {
			stack = &stacks[i]
		}
		sh, err := buildShard(i, cfg, stack)
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}
	// Striping and the shared wire handshake assume one sector and page
	// size across the fleet.
	g := shards[0].dev.Geometry()
	for _, sh := range shards[1:] {
		sg := sh.dev.Geometry()
		if sg.SubpageBytes != g.SubpageBytes || sg.SubpagesPerPage != g.SubpagesPerPage {
			return nil, fmt.Errorf("server: shard %d geometry (%dB x%d) differs from shard 0 (%dB x%d)",
				sh.idx, sg.SubpageBytes, sg.SubpagesPerPage, g.SubpageBytes, g.SubpagesPerPage)
		}
	}
	nss, err := carve(cfg.Namespaces, shards, g.SubpagesPerPage)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:         cfg,
		shards:      shards,
		nss:         nss,
		sectorBytes: g.SubpageBytes,
		pageSectors: g.SubpagesPerPage,
		conns:       make(map[net.Conn]struct{}),
		drained:     make(chan struct{}),
	}, nil
}

// Serve starts the shard engines, the TCP accept loop, and (when
// configured) the HTTP introspection listener. It returns once
// everything is listening; Addr reports the bound address.
func (s *Server) Serve() error {
	if s.served.Swap(true) {
		return fmt.Errorf("server: already serving")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.httpLn = hln
		s.httpSv = &http.Server{Handler: s.httpMux()}
		go s.httpSv.Serve(hln)
	}
	for _, sh := range s.shards {
		sh.start(s.cfg)
	}
	go s.acceptLoop()
	return nil
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain in progress
		}
		s.connWG.Add(1)
		go s.handle(c)
	}
}

// Addr returns the bound TCP address ("" before Serve).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr returns the bound introspection address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Inflight returns the number of commands currently holding admission
// slots, summed across shards.
func (s *Server) Inflight() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.inflight()
	}
	return n
}

// ShardCount returns the number of device shards.
func (s *Server) ShardCount() int { return len(s.shards) }

// ShardDevice exposes one shard's device, for fault arming and state
// probes after drain.
func (s *Server) ShardDevice(i int) *nand.Device { return s.shards[i].dev }

// ShardFTL exposes one shard's FTL behind its concurrency guard.
func (s *Server) ShardFTL(i int) *ftl.Guard { return s.shards[i].guard }

// ShardInflight returns the number of commands holding one shard's
// admission slots.
func (s *Server) ShardInflight(i int) int { return s.shards[i].inflight() }

// ShardReport returns one shard's engine report (nil before that
// shard's engine has retired).
func (s *Server) ShardReport(i int) *host.Report {
	select {
	case <-s.shards[i].engineDone:
		return s.shards[i].rep
	default:
		return nil
	}
}

// ShardMountReport returns one shard's serve-time mount report.
func (s *Server) ShardMountReport(i int) ftl.MountReport { return s.shards[i].mounted }

// NamespaceVersion resolves a namespace-relative sector to its owning
// shard and returns that FTL's version counter for it — the
// differential tests' probe for what the device durably holds,
// placement-agnostic. The guard lock serializes against the owning
// engine only.
func (s *Server) NamespaceVersion(name string, lsn int64) (uint32, error) {
	ns := s.lookup(name)
	if ns == nil {
		return 0, errUnknownNamespace(name)
	}
	if err := ns.bounds(lsn, 1); err != nil {
		return 0, err
	}
	sh, local := ns.shardLSN(lsn)
	return sh.guard.VersionOf(local), nil
}

// Shutdown drains gracefully: stop accepting, interrupt idle readers,
// wait for every accepted command to complete and every reply to be
// written (or its connection declared dead), then retire every shard
// engine and return the merged fleet report. Safe to call once;
// concurrent callers wait for the same drain.
func (s *Server) Shutdown() (*host.Report, error) {
	if s.draining.Swap(true) {
		<-s.drained
		return s.rep, s.engineErr
	}
	s.ln.Close()
	for _, sh := range s.shards {
		// The drain waits for in-flight commands below; a paced tail
		// must not be mistaken for a stall and fenced mid-drain.
		sh.stopWatchdog()
	}
	s.connMu.Lock()
	for c := range s.conns {
		// Readers blocked in CmdReader.Read wake with a deadline error; readers
		// mid-submission finish their current command first.
		c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
	s.connWG.Wait()
	reps := make([]*host.Report, len(s.shards))
	for _, sh := range s.shards {
		close(sh.sub)
	}
	for i, sh := range s.shards {
		<-sh.engineDone
		reps[i] = sh.rep
		if sh.engineErr != nil && s.engineErr == nil {
			s.engineErr = fmt.Errorf("server: shard %d: %w", sh.idx, sh.engineErr)
		}
	}
	// One shard's report is the fleet's; more merge into a fresh one, so
	// each shard's report stays as its engine left it.
	s.rep = reps[0]
	if len(reps) > 1 {
		s.rep = host.MergeReports(reps)
	}
	if s.httpSv != nil {
		// Graceful HTTP teardown: in-flight /stats and /metrics requests
		// (a drain-watcher polling for Draining:true, say) finish before
		// the listener dies; laggards are cut at the timeout.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		s.httpSv.Shutdown(ctx)
		cancel()
	}
	close(s.drained)
	return s.rep, s.engineErr
}

func (s *Server) track(c net.Conn, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		s.conns[c] = struct{}{}
		if s.draining.Load() {
			// Shutdown may already have swept the map: make sure this
			// late connection is interrupted too.
			c.SetReadDeadline(time.Now())
		}
	} else {
		delete(s.conns, c)
	}
}

func (s *Server) lookup(name string) *namespace {
	for _, ns := range s.nss {
		if ns.name == name {
			return ns
		}
	}
	return nil
}
