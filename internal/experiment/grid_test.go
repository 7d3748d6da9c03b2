package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/workload"
)

// TestBudgetedGCGridCompletes is the rule "aborts with an internal error is
// a failure" over a fixed slice of the configuration space: subFTL behind
// the QD32 × 4-queue read-priority scheduler with an incremental collector,
// profile × step × background slack × victim policy × faults. A run may end
// cleanly (Run's final Check makes that an invariant-checked end) or
// degrade to the typed read-only error under faults; anything else — a GC
// with no victim, an exhausted pool, a stalled allocator — fails with the
// espsim command line that reproduces the cell.
func TestBudgetedGCGridCompletes(t *testing.T) {
	// The eight cells that aborted earliest (all before request 4,000) when
	// the subpage region ran its own gate beside the log's; -short keeps
	// exactly these.
	early := map[string]bool{
		"-profile ycsb -gc-step 2 -gc-bg 8 -gc-policy greedy":                true,
		"-profile tpc-c -gc-step 2 -gc-bg 0 -gc-policy greedy":               true,
		"-profile ycsb -gc-step 2 -gc-bg 0 -gc-policy greedy":                true,
		"-profile tpc-c -gc-step 2 -gc-bg 8 -gc-policy greedy":               true,
		"-profile tpc-c -gc-step 2 -gc-bg 0 -gc-policy greedy -faults":       true,
		"-profile tpc-c -gc-step 2 -gc-bg 8 -gc-policy greedy -faults":       true,
		"-profile tpc-c -gc-step 2 -gc-bg 8 -gc-policy cost-benefit -faults": true,
		"-profile tpc-c -gc-step 2 -gc-bg 8 -gc-policy cost-benefit":         true,
	}
	requests := 20000
	if testing.Short() {
		requests = 5000
	}
	profiles := []struct {
		flag string
		prof workload.Profile
	}{{"tpc-c", workload.TPCC()}, {"ycsb", workload.YCSB()}, {"varmail", workload.Varmail()}}
	faults := fault.DefaultProfile(42)
	var cells []RunConfig
	var flags []string
	for _, p := range profiles {
		for _, step := range []int{2, 8} {
			for _, bg := range []int{0, 8} {
				for _, policy := range []string{"greedy", "cost-benefit"} {
					for _, faulty := range []bool{false, true} {
						name := fmt.Sprintf("-profile %s -gc-step %d -gc-bg %d -gc-policy %s", p.flag, step, bg, policy)
						cfg := RunConfig{
							Kind: KindSub, Geometry: QuickGeometry, Profile: p.prof, Requests: requests, Seed: 1,
							QueueDepth: 32, NumQueues: 4, Arbitration: "read-priority",
							GCPolicy: policy, GCStepPages: step, GCBackgroundSlack: bg,
						}
						if faulty {
							name += " -faults"
							cfg.FaultProfile = &faults
						}
						if testing.Short() && !early[name] {
							continue
						}
						cells = append(cells, cfg)
						flags = append(flags, name)
					}
				}
			}
		}
	}
	want := 48
	if testing.Short() {
		want = len(early)
	}
	if len(cells) != want {
		t.Fatalf("grid has %d cells, want %d", len(cells), want)
	}
	readOnly := 0
	for i, out := range runCells(cells) {
		switch err := out.Err; {
		case err == nil:
		case errors.Is(err, ftl.ErrReadOnly):
			readOnly++
		default:
			t.Errorf("go run ./cmd/espsim -ftl subFTL -qd 32 -queues 4 -arb read-priority %s -requests %d\n\t%v", flags[i], requests, err)
		}
	}
	t.Logf("%d cells, %d degraded to read-only", len(cells), readOnly)
}

// TestGridCounts pins how many runs the tables declare and how many of
// them are distinct: Fig. 2(b) adds no run to Fig. 2(a), and the whole
// suite's 149 declared cells are 106 runs (Fig. 8(b), Table 1 and
// ext-lifetime read Fig. 8(a)'s runs; abl-fault's fault-free cell is
// abl-hotcold's paper cell).
func TestGridCounts(t *testing.T) {
	o := tinyOpts().withDefaults()
	count := func(ids ...string) (declared, runs int) {
		var cells []RunConfig
		for _, e := range All() {
			if slices.Contains(ids, e.ID) && e.cells != nil {
				cells = append(cells, e.cells(o)...)
			}
		}
		r, _ := distinct(cells)
		return len(cells), len(r)
	}
	if _, alone := count("fig2a"); alone != 48 {
		t.Errorf("fig2a: %d distinct runs, want 48", alone)
	}
	if declared, runs := count("fig2a", "fig2b"); declared != 72 || runs != 48 {
		t.Errorf("fig2a+fig2b: %d declared, %d distinct, want 72 and 48", declared, runs)
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if declared, runs := count(ids...); declared != 149 || runs != 106 {
		t.Errorf("All(): %d declared, %d distinct, want 149 and 106", declared, runs)
	}
}

// TestRunCellsRunsEachConfigOnce hands runCells two equal configs, built
// separately, beside a third that differs only in its fault profile's
// content: the equal pair shares one Result, the third runs on its own.
func TestRunCellsRunsEachConfigOnce(t *testing.T) {
	mk := func(seed uint64) RunConfig {
		c := tinyRun(KindSub, workload.Varmail())
		c.Requests = 200
		p := fault.DefaultProfile(seed)
		c.FaultProfile = &p
		return c
	}
	outs := runCells([]RunConfig{mk(1), mk(1), mk(2)})
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("cell %d: %v", i, o.Err)
		}
	}
	if outs[0].Result != outs[1].Result {
		t.Error("equal configs ran twice")
	}
	if outs[0].Result == outs[2].Result {
		t.Error("configs with different fault profiles shared a run")
	}
}

// TestCellKeyCoversConfig keeps cellKey honest as RunConfig grows. %#v
// prints every field by value except through a pointer, map, interface,
// func or channel, so RunConfig may reach none of those except
// FaultProfile, which cellKey dereferences. It also checks the key tells
// apart configs that differ only in a trace's content, in a fault
// profile's content, or in a nil against a zero fault profile.
func TestCellKeyCoversConfig(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer:
			if path != "RunConfig.FaultProfile" {
				t.Errorf("%s is a pointer: cellKey would key it by address", path)
			}
			walk(path+".*", typ.Elem())
		case reflect.Map, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %v: cellKey cannot print it by content", path, typ.Kind())
		case reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("RunConfig", reflect.TypeOf(RunConfig{}))

	base := tinyRun(KindSub, workload.Varmail())
	if cellKey(base) != cellKey(base.withDefaults()) {
		t.Error("a config and its defaulted form key differently")
	}
	traced := func(lsn int64) RunConfig {
		c := base
		c.Trace = []workload.Request{{Op: workload.OpWrite, LSN: lsn, Sectors: 1}}
		return c
	}
	if cellKey(traced(0)) == cellKey(traced(4)) {
		t.Error("traces differing in content share a key")
	}
	if cellKey(traced(0)) != cellKey(traced(0)) {
		t.Error("equal traces key differently")
	}
	zero, one := base, base
	zero.FaultProfile = &fault.Profile{}
	p := fault.DefaultProfile(1)
	one.FaultProfile = &p
	if a, b, c := cellKey(base), cellKey(zero), cellKey(one); a == b || b == c || a == c {
		t.Error("nil, zero and default fault profiles do not key apart")
	}
}

// TestFailingTableNamedOnce: a table that fails to render is named once,
// by the runner, at the front of its error.
func TestFailingTableNamedOnce(t *testing.T) {
	_, err := tableByID(t, "fig2b", Options{Requests: 10, Seed: 1})
	if err == nil {
		t.Fatal("fig2b rendered at 10 requests; want its no-GC refusal")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "fig2b: ") || strings.Count(msg, "fig2b") != 1 {
		t.Errorf("error %q: want it to start with \"fig2b: \" and name fig2b once", msg)
	}
}
