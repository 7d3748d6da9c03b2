package experiment

import (
	"fmt"
	"time"

	"espftl/internal/ecc"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// Options sizes a figure regeneration. The zero value uses QuickGeometry
// and a request count that completes in seconds; cmd/espbench passes
// ExperimentGeometry and larger counts.
type Options struct {
	Geometry nand.Geometry
	Requests int
	Seed     uint64
}

func (o Options) withDefaults() Options {
	if o.Geometry.Channels == 0 {
		o.Geometry = QuickGeometry
	}
	if o.Requests == 0 {
		o.Requests = 30000
	}
	return o
}

// Fig2a regenerates Fig. 2(a): normalized throughput of the CGM and FGM
// schemes versus r_small for r_synch in {0, 0.3, 0.5, 1}, on the
// Sysbench-style synthetic sweep, normalized to the FGM scheme at
// r_small = r_synch = 0 exactly as in the paper. Because the request-size
// mix changes along the r_small axis, throughput is reported per host
// byte (the paper's runs are duration-based, which has the same effect);
// plain IOPS would conflate request size with FTL efficiency.
func Fig2a(o Options) (*Table, error) {
	o = o.withDefaults()
	rSmalls := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	rSynchs := []float64{0, 0.3, 0.5, 1.0}
	t := &Table{
		ID:      "fig2a",
		Title:   "Normalized IOPS vs r_small (CGM & FGM schemes)",
		Columns: []string{"scheme", "r_synch", "r_small=0.0", "0.2", "0.4", "0.6", "0.8", "1.0"},
	}
	baseline := 0.0
	type rowKey struct {
		kind  Kind
		synch float64
	}
	type cell struct {
		kind          Kind
		rsync, rsmall float64
	}
	var cells []cell
	var cfgs []RunConfig
	for _, kind := range []Kind{KindFGM, KindCGM} {
		for _, rsync := range rSynchs {
			for _, rsmall := range rSmalls {
				cells = append(cells, cell{kind, rsync, rsmall})
				cfgs = append(cfgs, RunConfig{
					Kind:     kind,
					Geometry: o.Geometry,
					Requests: o.Requests,
					Profile:  workload.SweepProfile(rsmall, rsync),
					Seed:     o.Seed,
				})
			}
		}
	}
	results, err := runGrid(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig2a: %w", err)
	}
	rows := make(map[rowKey][]float64)
	for i, res := range results {
		c := cells[i]
		secs := res.Elapsed.Seconds()
		if secs <= 0 {
			return nil, fmt.Errorf("fig2a %v rsmall=%v rsynch=%v: zero elapsed time", c.kind, c.rsmall, c.rsync)
		}
		tput := float64(res.Stats.HostSectorsWritten) / secs
		if c.kind == KindFGM && c.rsmall == 0 && c.rsync == 0 {
			baseline = tput
		}
		k := rowKey{c.kind, c.rsync}
		rows[k] = append(rows[k], tput)
	}
	if baseline == 0 {
		return nil, fmt.Errorf("fig2a: zero baseline IOPS")
	}
	for _, kind := range []Kind{KindFGM, KindCGM} {
		for _, rsync := range rSynchs {
			cells := []string{string(kind), f2(rsync)}
			for _, v := range rows[rowKey{kind, rsync}] {
				cells = append(cells, f3(v/baseline))
			}
			t.AddRow(cells...)
		}
	}
	t.Note("normalized host-write throughput; baseline FGM at r_small=0, r_synch=0 (%.0f sectors/s)", baseline)
	t.Note("paper shape: both schemes fall with r_small; FGM falls faster at higher r_synch; CGM far below FGM throughout")
	return t, nil
}

// Fig2b regenerates Fig. 2(b): normalized GC invocation counts of the FGM
// scheme over the same sweep, normalized to r_small = r_synch = 1.
func Fig2b(o Options) (*Table, error) {
	o = o.withDefaults()
	rSmalls := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	rSynchs := []float64{0, 0.3, 0.5, 1.0}
	t := &Table{
		ID:      "fig2b",
		Title:   "Normalized GC invocations vs r_small (FGM scheme)",
		Columns: []string{"r_synch", "r_small=0.0", "0.2", "0.4", "0.6", "0.8", "1.0"},
	}
	var cfgs []RunConfig
	for _, rsync := range rSynchs {
		for _, rsmall := range rSmalls {
			cfgs = append(cfgs, RunConfig{
				Kind:     KindFGM,
				Geometry: o.Geometry,
				Requests: o.Requests,
				Profile:  workload.SweepProfile(rsmall, rsync),
				Seed:     o.Seed,
			})
		}
	}
	results, err := runGrid(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig2b: %w", err)
	}
	var max float64
	grid := make([][]float64, len(rSynchs))
	for k, res := range results {
		i := k / len(rSmalls)
		bytes := float64(res.Stats.HostSectorsWritten) * 4096
		if bytes == 0 {
			return nil, fmt.Errorf("fig2b: no host writes")
		}
		gc := float64(res.Stats.GCInvocations) / (bytes / (1 << 30))
		grid[i] = append(grid[i], gc)
		if gc > max {
			max = gc
		}
	}
	if max == 0 {
		return nil, fmt.Errorf("fig2b: no GC invocations anywhere; device too lightly loaded")
	}
	for i, rsync := range rSynchs {
		cells := []string{f2(rsync)}
		for _, v := range grid[i] {
			cells = append(cells, f3(v/max))
		}
		t.AddRow(cells...)
	}
	t.Note("GC invocations per GiB of host writes, normalized to the maximum (expected at r_small=1, r_synch=1)")
	t.Note("paper shape: GC count grows with r_small and r_synch, mirroring the IOPS loss")
	return t, nil
}

// Fig5 regenerates Fig. 5: the normalized retention BER of N^k_pp-type
// subpages right after 1K P/E cycles and after 1- and 2-month retention,
// against the maximum ECC limit.
func Fig5(o Options) (*Table, error) {
	code := ecc.DefaultTLC
	t := &Table{
		ID:      "fig5",
		Title:   "Normalized retention BER vs N^k_pp type (at rated 1K P/E)",
		Columns: []string{"type", "after 1K P/E", "1-month", "2-month", "within ECC @1mo", "within ECC @2mo", "capability"},
	}
	pe := float64(nand.RatedPE)
	for k := nand.NppType(0); k <= 3; k++ {
		capability := nand.RetentionCapability(k, pe, nand.DepthFull)
		t.AddRow(
			k.String(),
			f3(nand.NormalizedBER(k, 0, pe, nand.DepthFull)),
			f3(nand.NormalizedBER(k, nand.Month, pe, nand.DepthFull)),
			f3(nand.NormalizedBER(k, 2*nand.Month, pe, nand.DepthFull)),
			fmt.Sprintf("%v", nand.Correctable(k, nand.Month, pe, nand.DepthFull)),
			fmt.Sprintf("%v", nand.Correctable(k, 2*nand.Month, pe, nand.DepthFull)),
			fmt.Sprintf("%.1f days", float64(capability)/float64(24*time.Hour)),
		)
	}
	t.Note("maximum ECC limit (normalized): %.2f = raw BER %.2e at %d bits / %d B codeword",
		nand.NormalizedECCLimit(), nand.RawBER(code, nand.NormalizedECCLimit()), code.CorrectBits, code.CodewordBytes)
	t.Note("paper calibration: N3pp is 41%% above N0pp right after 1K P/E; every type passes 1 month; N1..3pp fail 2 months; N0pp holds ~1 year")
	return t, nil
}

// benchmarkCfg assembles one benchmark-profile cell for one FTL kind. The
// logical fraction is set so live data occupies ~55 %% of raw capacity for
// every FTL (the paper ran at 62.5 %%; we back off slightly because our
// implementation-grade greedy GC keeps the baselines unrealistically cheap
// at the exact paper point, see EXPERIMENTS.md).
func benchmarkCfg(o Options, kind Kind, prof workload.Profile) RunConfig {
	return RunConfig{
		Kind:        kind,
		Geometry:    o.Geometry,
		Requests:    o.Requests,
		Profile:     prof,
		Seed:        o.Seed,
		LogicalFrac: 0.62,
	}
}

// Fig8a regenerates Fig. 8(a): normalized IOPS of cgmFTL, fgmFTL and
// subFTL over the five benchmarks, normalized per benchmark to cgmFTL.
func Fig8a(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:      "fig8a",
		Title:   "Normalized IOPS of the three FTLs over the five benchmarks",
		Columns: []string{"benchmark", "cgmFTL", "fgmFTL", "subFTL", "sub/fgm gain"},
	}
	var maxGain float64
	var sumGain float64
	profiles := workload.Benchmarks()
	kinds := []Kind{KindCGM, KindFGM, KindSub}
	var cfgs []RunConfig
	for _, prof := range profiles {
		for _, kind := range kinds {
			cfgs = append(cfgs, benchmarkCfg(o, kind, prof))
		}
	}
	results, err := runGrid(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig8a: %w", err)
	}
	for pi, prof := range profiles {
		var iops [3]float64
		for i := range kinds {
			iops[i] = results[pi*len(kinds)+i].IOPS()
		}
		if iops[0] == 0 {
			return nil, fmt.Errorf("fig8a %s: zero cgm IOPS", prof.Name)
		}
		gain := iops[2]/iops[1] - 1
		if gain > maxGain {
			maxGain = gain
		}
		sumGain += gain
		t.AddRow(prof.Name, f3(1.0), f3(iops[1]/iops[0]), f3(iops[2]/iops[0]),
			fmt.Sprintf("%+.1f%%", gain*100))
	}
	t.Note("normalized per benchmark to cgmFTL = 1.0")
	t.Note("subFTL over fgmFTL: max %+.1f%%, mean %+.1f%% (paper: up to +74%%, avg +35%% on its testbed)",
		maxGain*100, sumGain/float64(len(profiles))*100)
	return t, nil
}

// Fig8b regenerates Fig. 8(b): normalized GC invocations of fgmFTL versus
// subFTL over the five benchmarks, normalized per benchmark to subFTL.
func Fig8b(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:      "fig8b",
		Title:   "Normalized GC invocations, fgmFTL vs subFTL",
		Columns: []string{"benchmark", "subFTL", "fgmFTL", "reduction"},
	}
	var maxRed float64
	var sumRed float64
	profiles := workload.Benchmarks()
	var cfgs []RunConfig
	for _, prof := range profiles {
		cfgs = append(cfgs, benchmarkCfg(o, KindSub, prof), benchmarkCfg(o, KindFGM, prof))
	}
	results, err := runGrid(cfgs)
	if err != nil {
		return nil, fmt.Errorf("fig8b: %w", err)
	}
	for pi, prof := range profiles {
		sub, fgmRes := results[2*pi], results[2*pi+1]
		sgc, fgc := float64(sub.Stats.GCInvocations), float64(fgmRes.Stats.GCInvocations)
		if sgc == 0 {
			sgc = 1 // avoid division blowup when subFTL needs no GC at all
		}
		red := fgc/sgc - 1
		if red > maxRed {
			maxRed = red
		}
		sumRed += red
		t.AddRow(prof.Name, f3(1.0), f3(fgc/sgc), fmt.Sprintf("%+.1f%%", red*100))
	}
	t.Note("normalized per benchmark to subFTL = 1.0")
	t.Note("fgmFTL over subFTL: max %+.1f%%, mean %+.1f%% (paper: up to +177%%, avg +95%% more GC in fgmFTL)",
		maxRed*100, sumRed/float64(len(profiles))*100)
	return t, nil
}

// Table1 regenerates Table 1: the fraction of small writes and subFTL's
// average request WAF for every benchmark.
func Table1(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:      "table1",
		Title:   "Detailed analysis of subFTL",
		Columns: []string{"metric", "Sysbench", "Varmail", "Postmark", "YCSB", "TPC-C"},
	}
	smallRow := []string{"% of small write"}
	wafRow := []string{"average request WAF"}
	var cfgs []RunConfig
	for _, prof := range workload.Benchmarks() {
		cfgs = append(cfgs, benchmarkCfg(o, KindSub, prof))
	}
	results, err := runGrid(cfgs)
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	for _, res := range results {
		writes := res.Stats.HostWriteReqs
		pct := 0.0
		if writes > 0 {
			pct = float64(res.Stats.SmallWriteReqs) / float64(writes) * 100
		}
		smallRow = append(smallRow, fmt.Sprintf("%.1f%%", pct))
		wafRow = append(wafRow, f3(res.Stats.AvgRequestWAF()))
	}
	t.AddRow(smallRow...)
	t.AddRow(wafRow...)
	t.Note("paper: small-write %% = 99.7 / 95.3 / 99.9 / 19.3 / 11.8; request WAF = 1.005 / 1.007 / 1.003 / 1.005 / 1.008")
	return t, nil
}

// Fig1 reproduces the paper's context figure as a table: the published
// NAND page-size and capacity trend by technology node (static industry
// data quoted from the paper's Fig. 1).
func Fig1(Options) (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Trend of NAND page size and capacity (context data from the paper)",
		Columns: []string{"node (nm)", "~year", "page size (KB)", "capacity (Gb)"},
	}
	rows := []struct {
		node string
		year string
		page float64
		cap  float64
	}{
		{"300", "2000", 0.25, 0.5},
		{"200", "2002", 0.5, 1},
		{"130", "2004", 2, 2},
		{"70", "2006", 2, 8},
		{"60", "2008", 4, 16},
		{"50", "2009", 4, 32},
		{"4x", "2010", 8, 64},
		{"3x", "2011", 8, 64},
		{"2x", "2012", 8, 128},
		{"2y", "2014", 16, 128},
		{"1x", "2015", 16, 256},
		{"1y", "2016", 16, 768},
	}
	for _, r := range rows {
		t.AddRow(r.node, r.year, fmt.Sprintf("%g", r.page), fmt.Sprintf("%g", r.cap))
	}
	t.Note("page size grew 64x (256 B to 16 KB) while capacity grew ~1500x — the large-page problem the paper addresses")
	return t, nil
}
