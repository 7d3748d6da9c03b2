package main

import (
	"fmt"

	"espftl/internal/experiment"
	"espftl/internal/workload"
)

// workloadSpec is one workload: why it exists and how to run one
// repetition of it. The request counts inside each are the sizing that
// fills a refSeconds run on the reference box (2 cores); BENCHMARK.json
// states the same reasons.
type workloadSpec struct {
	name string
	why  string
	// deterministic workloads run on one goroutine: their model digest
	// must repeat exactly. The served ones interleave by wall-clock timing.
	deterministic bool
	run           func(rc *runCtx) (*rep, error)
}

var workloads = []workloadSpec{
	{
		name:          "sim-small",
		why:           "serial replay of Sysbench (99.7% small sync writes) on sub/fgm/cgm: the paper's headline regime, all work in the FTLs' small-write paths",
		deterministic: true,
		run:           simWorkload{profile: workload.Sysbench(), warm: 400_000, timed: 750_000}.run,
	},
	{
		name:          "sim-large",
		why:           "serial replay of TPC-C (11.8% small, 40% reads, large sequential writes): full-page store, write buffer and GC relocation dominate, the sub-region idles",
		deterministic: true,
		run:           simWorkload{profile: workload.TPCC(), warm: 300_000, timed: 220_000}.run,
	},
	{
		name:          "host-qd32",
		why:           "host scheduler closed loop, QD32 read-priority over 4 queues, incremental GC, Varmail on sub then fgm: event heap, arbitration and hazard checks are most of host time",
		deterministic: true,
		run: hostWorkload{profile: workload.Varmail(), warm: 500_000, timed: 420_000,
			kinds: []experiment.Kind{experiment.KindSub, experiment.KindFGM}}.run,
	},
	{
		name:          "host-open3k",
		why:           "host scheduler open loop at 3000 requests per virtual second on subFTL: latency from scheduled arrival, the only workload whose scheduler cost grows with backlog",
		deterministic: true,
		run: hostWorkload{profile: workload.Varmail(), warm: 500_000, timed: 90_000, rate: 3000,
			kinds: []experiment.Kind{experiment.KindSub}, contrast: []experiment.Kind{experiment.KindFGM}}.run,
	},
	{
		name: "serve-1x8",
		why:  "served path, 1 shard, 1 loopback connection, closed loop QD8, Zipf 35%-read mix: latency-bound, goroutine hand-offs and syscalls set the result",
		run:  serveWorkload{shards: 1, conns: 1, depth: 8, warm: 50_000, timed: 150_000}.run,
	},
	{
		name: "serve-2x16s",
		why:  "served path, 2 shards, 2 page-striped namespaces, 1 connection each at QD16, mix plus 1% FLUSH and 2% TRIM: CPU-bound, requests fragment across shards and join",
		run: serveWorkload{shards: 2, conns: 2, depth: 16, striped: true, flushEvery: 100, trimEvery: 50,
			warm: 50_000, timed: 100_000}.run,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDecl declares one metric the binary emits. BENCHMARK.json carries
// the same declarations; the smoke test keeps the two identical.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median a later change may lose
	// Simulated marks subFTL's simulated outcome, which repeats exactly for
	// a seed on a deterministic workload: -compare holds it to pairedBound
	// seed by seed there. Bound still has to cover the spread between
	// seeds, because that is what the driver's runs see.
	Simulated bool
}

// endToEndMetrics are what a user of the system sees, on every workload.
// Host-time metrics (req_per_s, cpu_us_per_req, setup_s, live_heap_mb) are
// this box's; virtual metrics are subFTL's simulated outcome over the
// timed window and never mix with them. Bounds were finalised from the
// acceptance runs (README, "Bounds").
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower", 0.25, false},
	{"req_per_s", "1/s", "higher", 0.25, false},
	{"cpu_us_per_req", "us", "lower", 0.25, false},
	{"live_heap_mb", "MB", "lower", 0.10, false},
	{"virt_iops", "1/s_virt", "higher", 0.25, true},
	{"virt_tail_lat_us", "us_virt", "lower", 0.25, true},
	{"waf", "ratio", "lower", 0.25, true},
	{"erases_per_kreq", "1/kreq", "lower", 0.20, true},
}

// perLayerMetrics are single-layer measurements from the traced run. A
// metric that does not apply to a workload (server.* on a simulator
// workload) reads 0 there.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDecl {
	var out []metricDecl
	add := func(name, unit, better string) { out = append(out, metricDecl{Name: name, Unit: unit, Better: better}) }
	add("wire.cmd_roundtrip_ns", "ns", "lower")
	add("wire.reply_roundtrip_ns", "ns", "lower")
	add("wire.bytes_per_req", "B", "lower")

	add("client.lat_p50_us", "us", "lower")
	add("client.lat_p99_us", "us", "lower")
	add("client.lat_tail_us", "us", "lower")
	add("client.lat_tail_pct", "%", "higher")
	add("client.lat_samples", "count", "higher")
	add("client.cpu_us_per_req", "us", "lower")

	add("server.self_us_per_req", "us", "lower")
	add("server.ftl_us_per_req", "us", "lower")
	add("server.sys_cpu_share", "ratio", "lower")
	add("server.ctx_switches_per_req", "count", "lower")
	add("server.engine_ftl_share", "ratio", "higher")
	add("server.frags_per_req", "count", "lower")
	add("server.shed_ops", "count", "lower")
	add("server.drain_ms", "ms", "lower")
	add("server.unattributed_us_per_req", "us", "lower")

	add("host.self_ns_per_req", "ns", "lower")
	add("host.out_of_order_share", "ratio", "higher")
	add("host.reads_promoted_per_kreq", "1/kreq", "higher")
	add("host.bg_deferred_per_kreq", "1/kreq", "lower")
	add("host.background_cmds", "count", "lower")
	add("host.read_lat_p99_us", "us_virt", "lower")
	add("host.write_lat_p99_us", "us_virt", "lower")
	add("host.read_wait_p99_us", "us_virt", "lower")
	add("host.write_wait_p99_us", "us_virt", "lower")
	add("host.fanout_mean", "count", "higher")
	add("host.qdepth_mean", "count", "lower")
	add("host.chip_util_mean", "ratio", "higher")
	add("host.open.fgm.p99_us", "us_virt", "lower")
	add("host.open.p99_us.r1500", "us_virt", "lower")
	add("host.open.p99_us.r3000", "us_virt", "lower")
	add("host.open.p99_us.r6000", "us_virt", "lower")
	add("host.open.max_rate_ok", "1/s_virt", "higher")

	for _, k := range []string{"sub", "fgm", "cgm"} {
		p := "ftl." + k + "."
		add(p+"ns_per_req", "ns", "lower")
		add(p+"write_ns", "ns", "lower")
		add(p+"read_ns", "ns", "lower")
		add(p+"tick_ns", "ns", "lower")
		add(p+"call_p99_ns", "ns", "lower")
		add(p+"call_max_us", "us", "lower")
		add(p+"stall_share", "ratio", "lower")
		add(p+"gc_invocations_per_kreq", "1/kreq", "lower")
		add(p+"gc_moved_sectors_per_req", "count", "lower")
		add(p+"gc_steps", "count", "lower")
		add(p+"gc_preemptions", "count", "lower")
		add(p+"rmw_per_kreq", "1/kreq", "lower")
		add(p+"buffer_absorbed_share", "ratio", "higher")
		add(p+"read_buffer_hit_share", "ratio", "higher")
		add(p+"req_waf", "ratio", "lower")
		add(p+"waf", "ratio", "lower")
		add(p+"waf_drift", "ratio", "lower")
		add(p+"mapping_bytes", "B", "lower")
		add(p+"recover_ms", "ms", "lower")
		add(p+"recover_virt_ms", "ms_virt", "lower")
		add(p+"recover_pages_scanned", "count", "lower")
	}
	add("ftl.sub.round_advances_per_kreq", "1/kreq", "higher")
	add("ftl.sub.sub_shifts_per_kreq", "1/kreq", "lower")
	add("ftl.sub.evictions_per_kreq", "1/kreq", "lower")
	add("ftl.sub.retention_moves", "count", "lower")
	add("ftl.sub.region_valid_share", "ratio", "higher")

	add("nand.page_reads_per_req", "count", "lower")
	add("nand.page_programs_per_req", "count", "lower")
	add("nand.sub_programs_per_req", "count", "lower")
	add("nand.erases_per_kreq", "1/kreq", "lower")
	add("nand.program_ns", "ns", "lower")
	add("nand.subprogram_ns", "ns", "lower")
	add("nand.read_ns", "ns", "lower")
	add("nand.erase_ns", "ns", "lower")
	add("nand.est_host_share", "ratio", "lower")
	add("nand.chip_util_mean", "ratio", "higher")
	add("nand.chip_util_min", "ratio", "higher")

	add("virt.lat_p99_us", "us_virt", "lower")
	add("paper.virt_iops_sub_over_fgm", "ratio", "higher")
	add("paper.virt_gc_fgm_over_sub", "ratio", "higher")

	add("experiment.grid_wall_s_w1", "s", "lower")
	add("experiment.grid_speedup", "ratio", "higher")
	add("workload.gen_ns_per_req", "ns", "lower")
	add("runtime.allocs_per_req", "count", "lower")
	add("runtime.bytes_per_req", "B", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")
	add("runtime.peak_rss_mb", "MB", "lower")
	add("trace.overhead_share", "ratio", "lower")
	add("env.calib_ms_before", "ms", "lower")
	add("env.calib_ms_after", "ms", "lower")
	return out
}

// The Fig. 8(a) fan-out is measured once per pass, in the traced run of
// gridWorkload, at gridRequests per cell.
const (
	gridWorkload = "sim-large"
	gridRequests = 20_000
)

func printList() {
	for _, w := range workloads {
		fmt.Printf("workload %s\n", w.name)
	}
	for _, m := range endToEndMetrics {
		fmt.Printf("end_to_end %s %s %s %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayerMetrics {
		fmt.Printf("per_layer %s %s %s\n", m.Name, m.Unit, m.Better)
	}
}
