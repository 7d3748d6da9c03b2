package chaos

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"espftl/internal/fault"
	"espftl/internal/ftltest"
	"espftl/internal/metrics"
	"espftl/internal/server"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// ShardedResult summarizes one sharded campaign.
type ShardedResult struct {
	// HotOps, ColdOps and WideOps count the completed requests of the
	// tenant on the fenced shard, the tenant on an untouched sibling,
	// and the tenant striped across the whole fleet.
	HotOps, ColdOps, WideOps int64
	// ColdP99 is the sibling tenant's wall-clock p99 across the whole
	// campaign — including the window where shard 0 was wedged.
	ColdP99 time.Duration
	// Statuses aggregates every final status any campaign client saw.
	Statuses map[uint8]int64
}

const (
	shardCount = 3
	hotNS      = "hot"  // pinned to shard 0, the shard that gets wedged
	coldNS     = "cold" // pinned to shard 1, must never notice
	wideNS     = "wide" // striped across all shards, fenced alongside hot
)

// RunSharded executes the multi-shard degraded-mode campaign: a
// three-shard fleet serves three tenants while shard 0's engine is
// wedged mid-storm. The per-shard watchdog must fence exactly the
// namespaces owning extents on shard 0 (hot and the striped wide —
// never cold), the sibling shards must keep serving with bounded
// latency, recovery must be refused while wedged and succeed after
// release, the recovered shard must rejoin the STAT aggregate, and the
// final drain must show no acknowledged write lost on any tenant.
func RunSharded(cfg Config) (*ShardedResult, error) {
	cfg = cfg.withDefaults()
	res := &ShardedResult{Statuses: make(map[uint8]int64)}

	// Three independent stacks, each StallFTL-wrapped so the campaign
	// could wedge any of them; this campaign wedges shard 0 only. The
	// fault profiles are quiet (seed only): the chaos under test is the
	// stall, not media errors.
	stacks := make([]server.ShardStack, shardCount)
	stalls := make([]*ftltest.StallFTL, shardCount)
	for i := range stacks {
		dev, _, stall, err := buildStack(fault.Profile{Seed: cfg.Seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		stalls[i] = stall
		stacks[i] = server.ShardStack{Device: dev, FTL: stall, LogicalSectors: sectors}
	}
	srv, err := server.New(server.Config{
		Stacks: stacks,
		Namespaces: []server.NamespaceSpec{
			{Name: hotNS, Placement: "0"},
			{Name: coldNS, Placement: "1"},
			{Name: wideNS, Placement: "*"},
		},
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

	ch, err := server.DialTimeout(srv.Addr(), hotNS, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer ch.Close()
	cc, err := server.DialTimeout(srv.Addr(), coldNS, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	cw, err := server.DialTimeout(srv.Addr(), wideNS, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer cw.Close()
	ps := int(ch.Welcome.PageSectors)
	newTenant := func(ns string, c *server.Client) tenant {
		n := int64(c.Welcome.Sectors)
		return tenant{ns, n, ftltest.NewModel(n)}
	}
	hot, cold, wide := newTenant(hotNS, ch), newTenant(coldNS, cc), newTenant(wideNS, cw)

	// The sibling and striped tenants run batch loops until the campaign
	// releases them, so both are live through the whole fence window.
	// cold must see nothing but OK; wide is allowed exactly the typed
	// fence refusals.
	stop := make(chan struct{})
	coldLoop := loopTenant(cc, cold, ps, cfg.Seed^0x636f6c64, stop, wire.StatusOK)
	wideLoop := loopTenant(cw, wide, ps, cfg.Seed^0x77696465, stop, wire.StatusOK, wire.StatusFenced)

	// ---- Phase 1: storm on the hot shard ------------------------------
	cfg.Logf("sharded phase 1: %d-op storm on the hot shard, siblings looping", cfg.Ops)
	reqsHot, err := stream(hot.sectors, ps, cfg.Ops, cfg.Seed^0x686f74)
	if err != nil {
		return nil, err
	}
	crHot, err := ch.RunRequests(reqsHot, 1, mirror(hot.m))
	if err != nil {
		return nil, fmt.Errorf("chaos: hot storm: %w", err)
	}
	res.HotOps = crHot.Ops
	addStatuses(res.Statuses, crHot.Statuses)

	// ---- Phase 2: wedge shard 0 -> fence -> release -> recover --------
	cfg.Logf("sharded phase 2: wedging shard 0; expecting a shard-scoped fence, then recovery of hot and wide")
	err = wedge(srv, stalls[0], 0, ch, []string{hotNS, wideNS}, hot.m, res.Statuses, func() error {
		// The fence is shard-scoped: the siblings and their tenant are
		// untouched.
		if srv.ShardStalled(1) || srv.ShardStalled(2) {
			return fmt.Errorf("sibling shard reported stalled during shard 0's wedge")
		}
		if h := srv.Health(coldNS); h != server.Healthy {
			return fmt.Errorf("cold namespace %v during shard 0's wedge, want healthy", h)
		}
		st, err := probe(srv.Addr(), coldNS, workload.Request{Op: workload.OpRead, LSN: 0, Sectors: 4})
		if err != nil {
			return fmt.Errorf("sibling probe during wedge: %w", err)
		}
		res.Statuses[st]++
		if st != wire.StatusOK {
			return fmt.Errorf("cold read during shard 0's wedge answered %s, want OK", wire.StatusName(st))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: stall phase: %w", err)
	}

	// Recovered means rejoined: the hot tenant's STAT snapshot —
	// aggregated over its owning shard — is healthy.
	payload, err := ch.Stat()
	if err != nil {
		return nil, fmt.Errorf("chaos: post-recovery STAT: %w", err)
	}
	var nsStat server.NamespaceStats
	if err := json.Unmarshal(payload, &nsStat); err != nil {
		return nil, err
	}
	if nsStat.Health != "healthy" {
		return nil, fmt.Errorf("chaos: recovered hot namespace STATs %q, want healthy", nsStat.Health)
	}
	if len(nsStat.Shards) != 1 || nsStat.Shards[0] != 0 {
		return nil, fmt.Errorf("chaos: hot namespace STATs shards %v, want [0]", nsStat.Shards)
	}

	// ---- Wind down the sibling loops and check their invariants -------
	close(stop)
	for _, lt := range []*loopingTenant{coldLoop, wideLoop} {
		if err := <-lt.done; err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		addStatuses(res.Statuses, lt.statuses)
	}
	res.ColdOps, res.WideOps = coldLoop.ops, wideLoop.ops
	res.ColdP99 = coldLoop.wall.Summary().P99
	// The sibling's latency must be bounded by ordinary service time, not
	// by the wedge: a cross-shard dependency would park cold commands
	// behind the stall for the whole fence window.
	if res.ColdP99 > 2*time.Second {
		return nil, fmt.Errorf("chaos: cold tenant p99 %v during shard 0's wedge", res.ColdP99)
	}

	// ---- Drain and differential check on every tenant -----------------
	cfg.Logf("sharded drain: shutting down and checking all three models")
	if err := drainAndCheck(srv, res.Statuses, hot, cold, wide); err != nil {
		return nil, err
	}
	return res, nil
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

// loopTenant runs model-checked 200-request batches at depth 8 on c until
// stop closes, failing as soon as a batch ends with a final status outside
// tolerated — the one way the sibling tenants differ.
func loopTenant(c *server.Client, t tenant, ps int, seed uint64, stop <-chan struct{}, tolerated ...uint8) *loopingTenant {
	lt := &loopingTenant{statuses: make(map[uint8]int64), wall: metrics.NewHistogram(), done: make(chan error, 1)}
	go func() {
		for batch := uint64(0); ; batch++ {
			select {
			case <-stop:
				lt.done <- nil
				return
			default:
			}
			reqs, err := stream(t.sectors, ps, 200, seed+batch)
			if err != nil {
				lt.done <- err
				return
			}
			cr, err := c.RunRequests(reqs, 8, mirror(t.m))
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
