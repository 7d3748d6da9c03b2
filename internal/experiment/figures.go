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

// cell is the run of kind on prof at o's geometry, request count and seed;
// experiments set their own knobs on top.
func (o Options) cell(kind Kind, prof workload.Profile) RunConfig {
	return RunConfig{Kind: kind, Geometry: o.Geometry, Requests: o.Requests, Profile: prof, Seed: o.Seed}
}

// Fig. 2's r_small x r_synch sweep.
var (
	rSmalls = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	rSynchs = []float64{0, 0.3, 0.5, 1.0}
)

// sweepCells declares Fig. 2's sweep for each kind in turn: kind-major,
// then r_synch, then r_small, so every row of the figure is len(rSmalls)
// consecutive cells.
func sweepCells(kinds ...Kind) func(Options) []RunConfig {
	return func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, kind := range kinds {
			for _, rsync := range rSynchs {
				for _, rsmall := range rSmalls {
					cfgs = append(cfgs, o.cell(kind, workload.SweepProfile(rsmall, rsync)))
				}
			}
		}
		return cfgs
	}
}

// fig2a is Fig. 2(a): normalized throughput of the CGM and FGM schemes
// versus r_small for r_synch in {0, 0.3, 0.5, 1}, on the Sysbench-style
// synthetic sweep, normalized to the FGM scheme at r_small = r_synch = 0
// exactly as in the paper. Because the request-size mix changes along the
// r_small axis, throughput is reported per host byte (the paper's runs are
// duration-based, which has the same effect); plain IOPS would conflate
// request size with FTL efficiency.
var fig2a = Experiment{
	ID:    "fig2a",
	Doc:   "IOPS vs r_small sweep, CGM & FGM",
	cells: sweepCells(KindFGM, KindCGM),
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Normalized IOPS vs r_small (CGM & FGM schemes)",
			Columns: []string{"scheme", "r_synch", "r_small=0.0", "0.2", "0.4", "0.6", "0.8", "1.0"},
		}
		tput := make([]float64, len(results))
		for i, res := range results {
			secs := res.Elapsed.Seconds()
			if secs <= 0 {
				return nil, fmt.Errorf("%v rsmall=%v rsynch=%v: zero elapsed time",
					res.Kind, rSmalls[i%len(rSmalls)], rSynchs[i/len(rSmalls)%len(rSynchs)])
			}
			tput[i] = float64(res.Stats.HostSectorsWritten) / secs
		}
		baseline := tput[0] // FGM at r_small = r_synch = 0
		if baseline == 0 {
			return nil, fmt.Errorf("zero baseline IOPS")
		}
		for i := 0; i < len(tput); i += len(rSmalls) {
			row := []string{string(results[i].Kind), f2(rSynchs[i/len(rSmalls)%len(rSynchs)])}
			for _, v := range tput[i : i+len(rSmalls)] {
				row = append(row, f3(v/baseline))
			}
			t.AddRow(row...)
		}
		t.Note("normalized host-write throughput; baseline FGM at r_small=0, r_synch=0 (%.0f sectors/s)", baseline)
		t.Note("paper shape: both schemes fall with r_small; FGM falls faster at higher r_synch; CGM far below FGM throughout")
		return t, nil
	}),
}

// fig2b is Fig. 2(b): normalized GC invocation counts of the FGM scheme
// over the same sweep, normalized to r_small = r_synch = 1.
var fig2b = Experiment{
	ID:    "fig2b",
	Doc:   "GC invocations vs r_small sweep, FGM",
	cells: sweepCells(KindFGM),
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Normalized GC invocations vs r_small (FGM scheme)",
			Columns: []string{"r_synch", "r_small=0.0", "0.2", "0.4", "0.6", "0.8", "1.0"},
		}
		var max float64
		gcs := make([]float64, len(results))
		for i, res := range results {
			bytes := float64(res.Stats.HostSectorsWritten) * 4096
			if bytes == 0 {
				return nil, fmt.Errorf("no host writes")
			}
			gcs[i] = float64(res.Stats.GCInvocations) / (bytes / (1 << 30))
			if gcs[i] > max {
				max = gcs[i]
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("no GC invocations anywhere; device too lightly loaded")
		}
		for i := 0; i < len(gcs); i += len(rSmalls) {
			row := []string{f2(rSynchs[i/len(rSmalls)])}
			for _, v := range gcs[i : i+len(rSmalls)] {
				row = append(row, f3(v/max))
			}
			t.AddRow(row...)
		}
		t.Note("GC invocations per GiB of host writes, normalized to the maximum (expected at r_small=1, r_synch=1)")
		t.Note("paper shape: GC count grows with r_small and r_synch, mirroring the IOPS loss")
		return t, nil
	}),
}

// fig5 is Fig. 5: the normalized retention BER of N^k_pp-type subpages
// right after 1K P/E cycles and after 1- and 2-month retention, against
// the maximum ECC limit. It runs nothing.
var fig5 = Experiment{
	ID:  "fig5",
	Doc: "subpage-aware retention model",
	render: func(Options, []Outcome) (*Table, error) {
		code := ecc.DefaultTLC
		t := &Table{
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
	},
}

// Fig5 regenerates Fig. 5 alone.
func Fig5(o Options) (*Table, error) { return regenerateOne(fig5, o) }

// benchmarkCfg assembles one benchmark-profile cell for one FTL kind. The
// logical fraction is set so live data occupies ~55 % of raw capacity for
// every FTL (the paper ran at 62.5 %; we back off slightly because our
// implementation-grade greedy GC keeps the baselines unrealistically cheap
// at the exact paper point, see EXPERIMENTS.md).
func benchmarkCfg(o Options, kind Kind, prof workload.Profile) RunConfig {
	c := o.cell(kind, prof)
	c.LogicalFrac = 0.62
	return c
}

// benchmarkCells declares benchmarkCfg for every profile x kind,
// profile-major. Fig. 8(a), Fig. 8(b), Table 1 and ext-lifetime declare
// subsets of one grid, so a selection holding several runs it once.
func benchmarkCells(profiles []workload.Profile, kinds ...Kind) func(Options) []RunConfig {
	return func(o Options) []RunConfig {
		var cfgs []RunConfig
		for _, prof := range profiles {
			for _, kind := range kinds {
				cfgs = append(cfgs, benchmarkCfg(o, kind, prof))
			}
		}
		return cfgs
	}
}

// fig8a is Fig. 8(a): normalized IOPS of cgmFTL, fgmFTL and subFTL over
// the five benchmarks, normalized per benchmark to cgmFTL.
var fig8a = Experiment{
	ID:    "fig8a",
	Doc:   "IOPS of the three FTLs on five benchmarks",
	cells: benchmarkCells(workload.Benchmarks(), KindCGM, KindFGM, KindSub),
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Normalized IOPS of the three FTLs over the five benchmarks",
			Columns: []string{"benchmark", "cgmFTL", "fgmFTL", "subFTL", "sub/fgm gain"},
		}
		var maxGain, sumGain float64
		for i := 0; i < len(results); i += 3 {
			cgm, fgm, sub := results[i].IOPS(), results[i+1].IOPS(), results[i+2].IOPS()
			if cgm == 0 {
				return nil, fmt.Errorf("%s: zero cgm IOPS", results[i].Profile)
			}
			gain := sub/fgm - 1
			if gain > maxGain {
				maxGain = gain
			}
			sumGain += gain
			t.AddRow(results[i].Profile, f3(1.0), f3(fgm/cgm), f3(sub/cgm), fmt.Sprintf("%+.1f%%", gain*100))
		}
		t.Note("normalized per benchmark to cgmFTL = 1.0")
		t.Note("subFTL over fgmFTL: max %+.1f%%, mean %+.1f%% (paper: up to +74%%, avg +35%% on its testbed)",
			maxGain*100, sumGain/float64(len(t.Rows))*100)
		return t, nil
	}),
}

// Fig8a regenerates Fig. 8(a) alone.
func Fig8a(o Options) (*Table, error) { return regenerateOne(fig8a, o) }

// fig8b is Fig. 8(b): normalized GC invocations of fgmFTL versus subFTL
// over the five benchmarks, normalized per benchmark to subFTL.
var fig8b = Experiment{
	ID:    "fig8b",
	Doc:   "GC invocations, fgmFTL vs subFTL",
	cells: benchmarkCells(workload.Benchmarks(), KindSub, KindFGM),
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Normalized GC invocations, fgmFTL vs subFTL",
			Columns: []string{"benchmark", "subFTL", "fgmFTL", "reduction"},
		}
		var maxRed, sumRed float64
		for i := 0; i < len(results); i += 2 {
			sgc, fgc := float64(results[i].Stats.GCInvocations), float64(results[i+1].Stats.GCInvocations)
			if sgc == 0 {
				sgc = 1 // avoid division blowup when subFTL needs no GC at all
			}
			red := fgc/sgc - 1
			if red > maxRed {
				maxRed = red
			}
			sumRed += red
			t.AddRow(results[i].Profile, f3(1.0), f3(fgc/sgc), fmt.Sprintf("%+.1f%%", red*100))
		}
		t.Note("normalized per benchmark to subFTL = 1.0")
		t.Note("fgmFTL over subFTL: max %+.1f%%, mean %+.1f%% (paper: up to +177%%, avg +95%% more GC in fgmFTL)",
			maxRed*100, sumRed/float64(len(t.Rows))*100)
		return t, nil
	}),
}

// table1 is Table 1: the fraction of small writes and subFTL's average
// request WAF for every benchmark.
var table1 = Experiment{
	ID:    "table1",
	Doc:   "subFTL small-write share and request WAF",
	cells: benchmarkCells(workload.Benchmarks(), KindSub),
	render: onResults(func(_ Options, results []*Result) (*Table, error) {
		t := &Table{
			Title:   "Detailed analysis of subFTL",
			Columns: []string{"metric", "Sysbench", "Varmail", "Postmark", "YCSB", "TPC-C"},
		}
		smallRow := []string{"% of small write"}
		wafRow := []string{"average request WAF"}
		for _, res := range results {
			pct := 0.0
			if writes := res.Stats.HostWriteReqs; writes > 0 {
				pct = float64(res.Stats.SmallWriteReqs) / float64(writes) * 100
			}
			smallRow = append(smallRow, fmt.Sprintf("%.1f%%", pct))
			wafRow = append(wafRow, f3(res.Stats.AvgRequestWAF()))
		}
		t.AddRow(smallRow...)
		t.AddRow(wafRow...)
		t.Note("paper: small-write %% = 99.7 / 95.3 / 99.9 / 19.3 / 11.8; request WAF = 1.005 / 1.007 / 1.003 / 1.005 / 1.008")
		return t, nil
	}),
}

// fig1 reproduces the paper's context figure as a table: the published
// NAND page-size and capacity trend by technology node (static industry
// data quoted from the paper's Fig. 1). It runs nothing.
var fig1 = Experiment{
	ID:  "fig1",
	Doc: "NAND page-size/capacity trend (context)",
	render: func(Options, []Outcome) (*Table, error) {
		t := &Table{
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
	},
}
