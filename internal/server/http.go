package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"espftl/internal/ftl"
	"espftl/internal/nand"
)

// StatsPage is the /stats document: the fleet's operating point, one
// entry per shard, plus every namespace's snapshot. The top-level
// fields are the merged view (inflight and GC sum across shards;
// stalled is true when any shard is); Shards carries the per-shard
// breakdown the merged numbers come from.
type StatsPage struct {
	Addr        string           `json:"addr"`
	Speedup     float64          `json:"speedup"`
	Realtime    bool             `json:"realtime"`
	Draining    bool             `json:"draining"`
	Stalled     bool             `json:"stalled"`
	Inflight    int              `json:"inflight"`
	MaxInflight int              `json:"max_inflight"`
	Conns       int              `json:"connections"`
	GC          GCStats          `json:"gc"`
	Shards      []ShardStats     `json:"shards"`
	Namespaces  []NamespaceStats `json:"namespaces"`
}

// ShardStats is one shard's slice of the /stats document.
type ShardStats struct {
	Index       int     `json:"index"`
	Inflight    int     `json:"inflight"`
	MaxInflight int     `json:"max_inflight"`
	Stalled     bool    `json:"stalled"`
	GC          GCStats `json:"gc"`
	// Namespaces lists the tenants with an extent on this shard.
	Namespaces []string `json:"namespaces"`
}

// GCStats is the device-level collector snapshot served in /stats and in
// STAT payloads: which victim policy drives garbage collection and how
// much incremental work it has done. In merged views the counters sum
// over shards (the policy is fleet-uniform).
type GCStats struct {
	Policy      string `json:"policy"`
	Steps       int64  `json:"steps"`
	PagesCopied int64  `json:"pages_copied"`
	Preemptions int64  `json:"preemptions"`
}

// add folds another shard's collector snapshot into g.
func (g *GCStats) add(o GCStats) {
	if g.Policy == "" {
		g.Policy = o.Policy
	}
	g.Steps += o.Steps
	g.PagesCopied += o.PagesCopied
	g.Preemptions += o.Preemptions
}

// nsGC merges the collector snapshots of the namespace's owning shards
// — what a tenant's STAT reply reports as "its" GC activity.
func (s *Server) nsGC(ns *namespace) GCStats {
	var out GCStats
	for _, e := range ns.extents {
		out.add(e.sh.gcSnapshot())
	}
	return out
}

// MetricsPage is the /metrics document. The top-level Device and FTL
// blocks are the merged fleet view — ftl.Stats.Add over the shards:
// counters summed, the wear distribution merged (labels and the sector
// size come from shard 0; shards are homogeneously configured). Shards
// carries each shard's own atomically snapshotted counters.
type MetricsPage struct {
	Device nand.Counters `json:"device"`
	FTL    ftl.Stats     `json:"ftl"`
	// VirtualNowNS is shard 0's wall-mapped virtual instant (0 when
	// serving as fast as possible). Shards run independent clocks; see
	// the per-shard entries for the others.
	VirtualNowNS int64          `json:"virtual_now_ns"`
	Shards       []ShardMetrics `json:"shards"`
}

// ShardMetrics is one shard's slice of the /metrics document.
type ShardMetrics struct {
	Index        int           `json:"index"`
	Device       nand.Counters `json:"device"`
	FTL          ftl.Stats     `json:"ftl"`
	VirtualNowNS int64         `json:"virtual_now_ns"`
}

func (s *Server) httpMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", s.serveStats)
	mux.HandleFunc("/metrics", s.serveMetrics)
	if s.cfg.EnablePprof {
		// The default-mux registrations net/http/pprof performs on
		// import don't apply here (this is a private mux); register the
		// handlers explicitly. Index serves every named profile
		// (heap, goroutine, allocs, ...) under /debug/pprof/.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) serveStats(w http.ResponseWriter, r *http.Request) {
	s.connMu.Lock()
	conns := len(s.conns)
	s.connMu.Unlock()
	page := StatsPage{
		Addr:        s.Addr(),
		Speedup:     s.shards[0].gate.Speedup(),
		Realtime:    s.shards[0].gate.Realtime(),
		Draining:    s.draining.Load(),
		Stalled:     s.Stalled(),
		MaxInflight: s.cfg.MaxInflight * len(s.shards),
		Conns:       conns,
	}
	for _, sh := range s.shards {
		st := ShardStats{
			Index:       sh.idx,
			Inflight:    sh.inflight(),
			MaxInflight: s.cfg.MaxInflight,
			Stalled:     sh.stalled.Load(),
			GC:          sh.gcSnapshot(),
		}
		for _, ns := range sh.nss {
			st.Namespaces = append(st.Namespaces, ns.name)
		}
		page.Inflight += st.Inflight
		page.GC.add(st.GC)
		page.Shards = append(page.Shards, st)
	}
	for _, ns := range s.nss {
		st := ns.snapshot()
		st.GC = s.nsGC(ns)
		page.Namespaces = append(page.Namespaces, st)
	}
	writeJSON(w, page)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	var page MetricsPage
	for _, sh := range s.shards {
		sm := ShardMetrics{Index: sh.idx}
		// Each shard guard's lock is its engine's submission lock: the
		// device and FTL snapshot is taken between — never inside — that
		// shard's commands. Shards snapshot independently; the merged
		// view is consistent per shard, not across them.
		sh.guard.Do(func() {
			sm.Device = sh.dev.Counters()
			sm.FTL = sh.guard.Unwrap().Stats()
		})
		if sh.gate.Realtime() {
			sm.VirtualNowNS = int64(sh.gate.VirtualNow())
		}
		if sh.idx == 0 {
			page.FTL, page.VirtualNowNS = sm.FTL, sm.VirtualNowNS
		} else {
			page.FTL.Add(sm.FTL)
		}
		page.Shards = append(page.Shards, sm)
	}
	// Stats mirrors the device counters it was snapshotted with, so the
	// merged FTL block already carries their fleet sum.
	page.Device = page.FTL.Device
	writeJSON(w, page)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
