package server

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"espftl/internal/metrics"
	"espftl/internal/workload"
)

// NamespaceSpec declares one tenant namespace: a named slice of the
// fleet's logical space. Sectors is the exported size; zero means an
// equal share of whatever the explicit specs leave unclaimed on the
// namespace's shard(s).
//
// Placement routes the namespace to device shards at carve time:
//
//	""    consistent hash of the name picks one shard (default)
//	"3"   pinned to shard 3
//	"*"   striped page-by-page across every shard
//
// A striped namespace's logical space is laid out round-robin in
// one-page stripe units over all shards; reads, writes and trims that
// cross stripe boundaries fan out, and FLUSH becomes a barrier across
// every owning shard.
type NamespaceSpec struct {
	Name      string
	Sectors   int64
	Placement string
}

// extent is one shard-resident slice of a namespace: a contiguous
// window of that shard's logical space.
type extent struct {
	sh   *shard
	base int64 // first sector within the shard's logical space
	size int64
}

// namespace is the runtime state of one tenant: its routing table (one
// extent per owning shard) plus the per-tenant accounting the engines
// write and the introspection endpoints read. The mutex spans only
// counter updates and snapshots — never I/O.
type namespace struct {
	name    string
	sectors int64 // total exported size across all extents

	// extents, ascending by shard index. A single-extent namespace
	// routes every request whole; a multi-extent one stripes.
	extents []extent
	// stripe is the stripe unit in sectors (one page) when striped;
	// 0 for a single-extent namespace.
	stripe int64

	// health is the tenant's degraded-mode state machine; lock-free so
	// completions escalate and readers shed without touching mu.
	health health

	mu                     sync.Mutex
	reads, writes          int64
	trims, flushes         int64
	errors                 int64
	hostWriteBytes         int64
	flashBytes             int64
	lat, readLat, writeLat *metrics.Histogram
}

func newNamespace(name string, sectors int64) *namespace {
	return &namespace{
		name: name, sectors: sectors,
		lat:      metrics.NewHistogram(),
		readLat:  metrics.NewHistogram(),
		writeLat: metrics.NewHistogram(),
	}
}

// bounds validates a namespace-relative request window.
func (n *namespace) bounds(lsn int64, sectors int) error {
	if lsn < 0 || sectors < 0 || lsn+int64(sectors) > n.sectors {
		return fmt.Errorf("server: range [%d,%d) outside namespace %s (%d sectors)",
			lsn, lsn+int64(sectors), n.name, n.sectors)
	}
	return nil
}

// frag is one shard-local fragment of a routed request.
type frag struct {
	sh  *shard
	req workload.Request
}

// routeInto maps a namespace-relative request onto shard-local
// fragments, appending to caller-owned scratch (the connection read loop
// passes its per-connection buffer so the steady-state route allocates
// nothing). Single-extent namespaces route whole (the common, fast
// case). Striped namespaces split I/O at stripe boundaries and fan FLUSH
// out to every owning shard — the completion join in the connection
// handler is what turns that fan-out into a barrier.
func (n *namespace) routeInto(r workload.Request, out []frag) []frag {
	if len(n.extents) == 1 {
		r.LSN += n.extents[0].base
		return append(out, frag{sh: n.extents[0].sh, req: r})
	}
	if r.Op == workload.OpFlush {
		for i := range n.extents {
			out = append(out, frag{sh: n.extents[i].sh, req: r})
		}
		return out
	}
	// Striped data path: walk the stripes the window touches. Stripe si
	// lives on extent si%k at stripe row si/k within that extent.
	su, k := n.stripe, int64(len(n.extents))
	start, end := r.LSN, r.LSN+int64(r.Sectors)
	for si := start / su; si*su < end; si++ {
		e := &n.extents[si%k]
		lo, hi := si*su, (si+1)*su
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		fr := r
		fr.LSN = e.base + (si/k)*su + (lo - si*su)
		fr.Sectors = int(hi - lo)
		out = append(out, frag{sh: e.sh, req: fr})
	}
	return out
}

// shardLSN maps one namespace-relative sector to its owning shard and
// shard-local address, for version probes.
func (n *namespace) shardLSN(lsn int64) (*shard, int64) {
	if len(n.extents) == 1 {
		return n.extents[0].sh, n.extents[0].base + lsn
	}
	su, k := n.stripe, int64(len(n.extents))
	si := lsn / su
	e := &n.extents[si%k]
	return e.sh, e.base + (si/k)*su + (lsn - si*su)
}

// record accounts one completed command. flashBytes is the device
// program traffic the engines attributed to the command (host data plus
// the GC work it triggered) — the numerator of the namespace's WAF. For
// a fanned-out command, lat is the slowest fragment and flashBytes the
// sum across shards.
func (n *namespace) record(op workload.Op, sectors, sectorBytes int, lat time.Duration, flashBytes int64, errored bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch op {
	case workload.OpRead:
		n.reads++
		n.readLat.Record(lat)
	case workload.OpWrite:
		n.writes++
		n.writeLat.Record(lat)
		if !errored {
			n.hostWriteBytes += int64(sectors) * int64(sectorBytes)
		}
	case workload.OpTrim:
		n.trims++
	case workload.OpFlush:
		n.flushes++
	}
	n.lat.Record(lat)
	n.flashBytes += flashBytes
	if errored {
		n.errors++
	}
}

// LatencySummary is the JSON rendering of a latency distribution, in
// nanoseconds of virtual (device) time.
type LatencySummary struct {
	Count  uint64 `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P95NS  int64  `json:"p95_ns"`
	P99NS  int64  `json:"p99_ns"`
	MaxNS  int64  `json:"max_ns"`
}

func summarize(h *metrics.Histogram) LatencySummary {
	s := h.Summary()
	return LatencySummary{
		Count:  s.Count,
		MeanNS: int64(s.Mean),
		P50NS:  int64(s.P50),
		P95NS:  int64(s.P95),
		P99NS:  int64(s.P99),
		MaxNS:  int64(s.Max),
	}
}

// NamespaceStats is the per-tenant snapshot served by /stats and STAT.
type NamespaceStats struct {
	Name string `json:"name"`
	// BaseSector is the namespace's base within its first owning
	// shard's logical space (shard-local; informational).
	BaseSector int64 `json:"base_sector"`
	Sectors    int64 `json:"sectors"`
	// Shards lists the owning shard indices; StripeSectors is the
	// stripe unit when the namespace spans more than one (0 otherwise).
	Shards         []int          `json:"shards"`
	StripeSectors  int64          `json:"stripe_sectors,omitempty"`
	Health         string         `json:"health"`
	ShedCommands   int64          `json:"shed_commands"`
	Reads          int64          `json:"reads"`
	Writes         int64          `json:"writes"`
	Trims          int64          `json:"trims"`
	Flushes        int64          `json:"flushes"`
	Errors         int64          `json:"errors"`
	HostWriteBytes int64          `json:"host_write_bytes"`
	FlashBytes     int64          `json:"flash_bytes"`
	WAF            float64        `json:"waf"`
	Latency        LatencySummary `json:"latency"`
	ReadLatency    LatencySummary `json:"read_latency"`
	WriteLatency   LatencySummary `json:"write_latency"`
	// GC is the collector snapshot summed over the namespace's owning
	// shards; the STAT path fills it after snapshot().
	GC GCStats `json:"gc"`
}

// snapshot renders the namespace's counters; WAF is flash bytes per
// acknowledged host write byte.
func (n *namespace) snapshot() NamespaceStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := NamespaceStats{
		Name:           n.name,
		BaseSector:     n.extents[0].base,
		Sectors:        n.sectors,
		StripeSectors:  n.stripe,
		Health:         n.health.load().String(),
		ShedCommands:   n.health.shed.Load(),
		Reads:          n.reads,
		Writes:         n.writes,
		Trims:          n.trims,
		Flushes:        n.flushes,
		Errors:         n.errors,
		HostWriteBytes: n.hostWriteBytes,
		FlashBytes:     n.flashBytes,
		Latency:        summarize(n.lat),
		ReadLatency:    summarize(n.readLat),
		WriteLatency:   summarize(n.writeLat),
	}
	for _, e := range n.extents {
		s.Shards = append(s.Shards, e.sh.idx)
	}
	if s.HostWriteBytes > 0 {
		s.WAF = float64(s.FlashBytes) / float64(s.HostWriteBytes)
	}
	return s
}

// hashShard is the consistent-hash placement: FNV-1a over the name.
// Stable across runs and shard-set restarts, so the same namespace name
// lands on the same shard for the same -shards value.
func hashShard(name string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// placements resolves a spec's Placement to its set of owning shard
// indices, ascending.
func placements(sp NamespaceSpec, shards int) ([]int, error) {
	switch sp.Placement {
	case "":
		return []int{hashShard(sp.Name, shards)}, nil
	case "*":
		all := make([]int, shards)
		for i := range all {
			all[i] = i
		}
		return all, nil
	default:
		i, err := strconv.Atoi(sp.Placement)
		if err != nil || i < 0 || i >= shards {
			return nil, fmt.Errorf("server: namespace %q: placement %q is not a shard index < %d or \"*\"",
				sp.Name, sp.Placement, shards)
		}
		return []int{i}, nil
	}
}

// carve lays the namespace specs out as disjoint page-aligned extents
// over the shards' logical spaces. Every per-shard slice of a namespace
// is equal-sized (stripes must line up); sized specs spread Sectors
// evenly over their owning shards, unsized specs split what the sized
// ones leave unclaimed. Carving also fills each shard's namespace list
// for watchdog fencing.
func carve(specs []NamespaceSpec, shards []*shard, pageSectors int) ([]*namespace, error) {
	if len(specs) == 0 {
		specs = []NamespaceSpec{{Name: "default"}}
	}
	ps := int64(pageSectors)
	n := len(shards)
	claimed := make([]int64, n)
	implicit := make([]int, n) // unsized-spec slots per shard
	sets := make([][]int, len(specs))
	names := make(map[string]bool, len(specs))
	for i, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("server: namespace %d has no name", i)
		}
		if names[sp.Name] {
			return nil, fmt.Errorf("server: duplicate namespace %q", sp.Name)
		}
		names[sp.Name] = true
		if sp.Sectors < 0 {
			return nil, fmt.Errorf("server: namespace %q: negative size", sp.Name)
		}
		set, err := placements(sp, n)
		if err != nil {
			return nil, err
		}
		sort.Ints(set)
		sets[i] = set
		if sp.Sectors == 0 {
			for _, s := range set {
				implicit[s]++
			}
			continue
		}
		per := sp.Sectors / int64(len(set)) / ps * ps
		if per == 0 {
			return nil, fmt.Errorf("server: namespace %q: %d sectors is less than one page per owning shard",
				sp.Name, sp.Sectors)
		}
		for _, s := range set {
			claimed[s] += per
		}
	}
	for i, sh := range shards {
		if claimed[i] > sh.logical {
			return nil, fmt.Errorf("server: namespaces claim %d of %d logical sectors on shard %d",
				claimed[i], sh.logical, i)
		}
	}
	// Unsized specs: each shard splits its remainder equally among the
	// implicit slots it hosts; a multi-shard spec takes the minimum of
	// its shards' shares so its stripes stay equal-sized.
	share := make([]int64, n)
	for i, sh := range shards {
		if implicit[i] == 0 {
			continue
		}
		share[i] = (sh.logical - claimed[i]) / int64(implicit[i]) / ps * ps
		if share[i] == 0 {
			return nil, fmt.Errorf("server: no space left for %d unsized namespaces on shard %d", implicit[i], i)
		}
	}
	next := make([]int64, n) // next free base per shard
	var out []*namespace
	for i, sp := range specs {
		set := sets[i]
		per := sp.Sectors / int64(len(set)) / ps * ps
		if sp.Sectors == 0 {
			per = share[set[0]]
			for _, s := range set[1:] {
				if share[s] < per {
					per = share[s]
				}
			}
		}
		ns := newNamespace(sp.Name, per*int64(len(set)))
		if len(set) > 1 {
			ns.stripe = ps
		}
		for _, s := range set {
			ns.extents = append(ns.extents, extent{sh: shards[s], base: next[s], size: per})
			next[s] += per
			shards[s].nss = append(shards[s].nss, ns)
		}
		out = append(out, ns)
	}
	return out, nil
}
