package experiment

import (
	"errors"
	"fmt"
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
	_, errs := runGridSettled(cells)
	readOnly := 0
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ftl.ErrReadOnly):
			readOnly++
		default:
			t.Errorf("go run ./cmd/espsim -ftl subFTL -qd 32 -queues 4 -arb read-priority %s -requests %d\n\t%v", flags[i], requests, err)
		}
	}
	t.Logf("%d cells, %d degraded to read-only", len(cells), readOnly)
}
