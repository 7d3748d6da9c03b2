package experiment

import (
	"strings"
	"testing"
	"time"

	"espftl/internal/workload"
)

// tinyOpts keeps the standard quick device (smaller geometries starve
// subFTL's full-page region into a GC wear spiral) but trims the request
// counts so the whole package test runs in seconds.
func tinyOpts() Options {
	return Options{
		Geometry: QuickGeometry,
		Requests: 1500,
		Seed:     1,
	}
}

func tinyRun(kind Kind, prof workload.Profile) RunConfig {
	o := tinyOpts()
	return RunConfig{Kind: kind, Geometry: o.Geometry, Requests: o.Requests, Profile: prof, Seed: o.Seed}
}

func TestRunAllKinds(t *testing.T) {
	for _, kind := range []Kind{KindCGM, KindFGM, KindSub} {
		t.Run(string(kind), func(t *testing.T) {
			res, err := Run(tinyRun(kind, workload.Varmail()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind != kind || res.Profile != "Varmail" {
				t.Fatalf("result identity: %+v", res)
			}
			if res.Requests != 1500 || res.Elapsed <= 0 || res.IOPS() <= 0 {
				t.Fatalf("timing: requests=%d elapsed=%v", res.Requests, res.Elapsed)
			}
			// The stats are measured-phase deltas: host writes must be
			// below the request count plus reads.
			if res.Stats.HostWriteReqs+res.Stats.HostReadReqs != int64(res.Requests) {
				t.Fatalf("request accounting: %+v", res.Stats)
			}
			if res.FillSectors <= 0 {
				t.Fatal("no preconditioning recorded")
			}
			if len(res.ChipUtil) != QuickGeometry.Chips() {
				t.Fatalf("chip utilization entries: %d", len(res.ChipUtil))
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinyRun(KindSub, workload.Sysbench()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyRun(KindSub, workload.Sysbench()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatal("identical configs produced different results")
	}
}

func TestRunUnknownKind(t *testing.T) {
	cfg := tinyRun("nope", workload.Varmail())
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "unknown FTL") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTraceWithIdleGaps(t *testing.T) {
	o := tinyOpts()
	reqs := []workload.Request{
		{Op: workload.OpWrite, LSN: 0, Sectors: 1, Sync: true},
		{Op: workload.OpAdvance, Gap: 40 * 24 * time.Hour},
		{Op: workload.OpRead, LSN: 0, Sectors: 1},
		{Op: workload.OpTrim, LSN: 0, Sectors: 1},
	}
	res, err := Run(RunConfig{Kind: KindSub, Geometry: o.Geometry, Trace: reqs, TickEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The 40-day gap must have been chunked into daily ticks: the parked
	// sector was scrubbed at ~15 days and the read succeeded.
	if res.Stats.RetentionMoves == 0 {
		t.Fatal("idle gap did not drive the retention scrub")
	}
	if res.Profile != "trace" || res.Requests != len(reqs) {
		t.Fatalf("trace identity: %+v", res)
	}
}

// TestTraceMeasuresLatency: a trace replays through the same loop as a
// generator, so MeasureLatency records one sample per replayed request. The
// idle gap is no request: it records nothing and does not leak into the
// next request's sample.
func TestTraceMeasuresLatency(t *testing.T) {
	o := tinyOpts()
	gen, err := workload.NewSynthetic(workload.Varmail(), 4096, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n, gap = 2000, 30 * 24 * time.Hour
	var reqs []workload.Request
	for i := 0; i < n; i++ {
		if i == n/2 {
			reqs = append(reqs, workload.Request{Op: workload.OpAdvance, Gap: gap})
		}
		reqs = append(reqs, gen.Next())
	}
	res, err := Run(RunConfig{Kind: KindSub, Geometry: o.Geometry, Trace: reqs, MeasureLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Latency.Count(); got != n {
		t.Fatalf("latency samples = %d, want %d (one per replayed request)", got, n)
	}
	if max := res.Latency.Max(); max >= gap/2 {
		t.Fatalf("max latency %v: the idle gap leaked into a request's sample", max)
	}
}

func TestPreconditionError(t *testing.T) {
	// A logical fraction of ~1.0 cannot fit subFTL's regions: Run must
	// surface the failure instead of wedging.
	o := tinyOpts()
	_, err := Run(RunConfig{
		Kind:        KindSub,
		Geometry:    o.Geometry,
		Requests:    100,
		Profile:     workload.Varmail(),
		LogicalFrac: 0.99,
		FillFrac:    0.99,
	})
	if err == nil {
		t.Fatal("oversubscribed device preconditioned successfully")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.Note("hello %d", 7)
	s := tbl.String()
	for _, want := range []string{"== x: demo ==", "333", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### x — demo", "| a | bb |", "| 333 | 4 |", "*hello 7*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("Markdown() missing %q:\n%s", want, md)
		}
	}
}

func TestFig1Static(t *testing.T) {
	tbl, err := tableByID(t, "fig1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 12 {
		t.Fatalf("fig1 rows = %d", len(tbl.Rows))
	}
}

func TestFig5Calibration(t *testing.T) {
	tbl, err := tableByID(t, "fig5", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig5 rows = %d", len(tbl.Rows))
	}
	// N3pp row: passes 1 month, fails 2 months.
	row := tbl.Rows[3]
	if row[0] != "N3pp" || row[4] != "true" || row[5] != "false" {
		t.Fatalf("N3pp row = %v", row)
	}
}

// TestFiguresSmoke exercises every regenerator end-to-end at tiny scale,
// asserting structural health (row counts, no errors) — the numeric shapes
// are recorded in EXPERIMENTS.md from full runs — and that sharing runs
// never changes a table: each id rendered alone prints the same bytes as
// inside one all-ids grid.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := tinyOpts()
	o.Requests = 4000 // enough churn that every scheme GCs
	tables, errs := Regenerate(All(), o)
	for i, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if errs[i] != nil {
				t.Fatalf("in the all-ids grid: %v", errs[i])
			}
			tbl, err := regenerateOne(e, o)
			if err != nil {
				t.Fatalf("alone: %v", err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			if tbl.ID != e.ID {
				t.Fatalf("table id %q != %q", tbl.ID, e.ID)
			}
			if alone, shared := tbl.String(), tables[i].String(); alone != shared {
				t.Errorf("alone and in the all-ids grid differ\n--- alone ---\n%s\n--- all ids ---\n%s", alone, shared)
			}
		})
	}
}

// tableByID renders the experiment named id alone.
func tableByID(t *testing.T, id string, o Options) (*Table, error) {
	t.Helper()
	for _, e := range All() {
		if e.ID == id {
			return regenerateOne(e, o)
		}
	}
	t.Fatalf("no experiment %q", id)
	return nil, nil
}

func TestAllIndexIsComplete(t *testing.T) {
	want := []string{"fig1", "fig2a", "fig2b", "fig5", "fig8a", "fig8b", "table1",
		"abl-region", "abl-hotcold", "abl-retention", "abl-fault", "abl-sched",
		"abl-gc", "abl-lifetime", "ext-subread", "ext-lifetime", "ext-lifetime2",
		"ext-latency"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, e.ID, want[i])
		}
		if e.Doc == "" {
			t.Fatalf("%s has no doc", e.ID)
		}
	}
}
