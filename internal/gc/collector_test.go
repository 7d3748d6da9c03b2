package gc

import (
	"errors"
	"testing"

	"espftl/internal/nand"
	"espftl/internal/sim"
)

// fakeTarget simulates an FTL's relocation side: each victim holds a
// fixed number of pages, some live (each costing one copy) and some
// dead (skipped at zero copies).
type fakeTarget struct {
	view     *fakeView
	live     map[nand.BlockID][]bool // per-page liveness, consumed by Work
	cursor   map[nand.BlockID]int
	begun    []nand.BlockID
	released []nand.BlockID
	fallback func() (nand.BlockID, bool)
	workErr  error
}

func newFakeTarget(view *fakeView, pages map[nand.BlockID][]bool) *fakeTarget {
	return &fakeTarget{view: view, live: pages, cursor: make(map[nand.BlockID]int)}
}

func (t *fakeTarget) View() View { return t.view }

func (t *fakeTarget) Fallback() (nand.BlockID, bool) {
	if t.fallback == nil {
		return 0, false
	}
	return t.fallback()
}

func (t *fakeTarget) Begin(b nand.BlockID) {
	t.begun = append(t.begun, b)
	t.cursor[b] = 0
}

func (t *fakeTarget) Work(b nand.BlockID) (int, bool, error) {
	if t.workErr != nil {
		return 0, false, t.workErr
	}
	pages := t.live[b]
	i := t.cursor[b]
	if i >= len(pages) {
		return 0, true, nil
	}
	t.cursor[b] = i + 1
	copied := 0
	if pages[i] {
		copied = 1
	}
	return copied, t.cursor[b] >= len(pages), nil
}

func (t *fakeTarget) Release(b nand.BlockID) error {
	t.released = append(t.released, b)
	t.view.valid[b] = -1 // drained: no longer a candidate
	return nil
}

func targetWith(valid []int, livePages map[nand.BlockID][]bool) (*fakeTarget, *fakeView) {
	v := newFakeView(valid, make([]sim.Time, len(valid)), 8, 100)
	return newFakeTarget(v, livePages), v
}

func TestCollectDrainsWholeVictim(t *testing.T) {
	tgt, _ := targetWith([]int{3, 1}, map[nand.BlockID][]bool{
		1: {true, false, false, true},
	})
	c := NewCollector(Greedy{}, 2)
	if err := c.Collect(tgt); err != nil {
		t.Fatal(err)
	}
	if len(tgt.released) != 1 || tgt.released[0] != 1 {
		t.Fatalf("released %v, want [1]", tgt.released)
	}
	if c.Active() {
		t.Fatal("collector still active after Collect")
	}
	if c.PagesCopied() != 2 {
		t.Fatalf("copied %d, want 2 live pages", c.PagesCopied())
	}
	if c.Preemptions() != 0 {
		t.Fatalf("foreground Collect counted %d preemptions", c.Preemptions())
	}
}

func TestStepHonoursBudgetAndResumes(t *testing.T) {
	tgt, _ := targetWith([]int{4}, map[nand.BlockID][]bool{
		0: {true, true, true, true},
	})
	c := NewCollector(Greedy{}, 1) // one page per step
	for i := 0; i < 3; i++ {
		freed, err := c.Step(tgt)
		if err != nil {
			t.Fatal(err)
		}
		if freed {
			t.Fatalf("step %d freed a 4-page victim at budget 1", i)
		}
		if !c.Active() || !c.InFlight(0) {
			t.Fatalf("step %d lost the checkpoint", i)
		}
	}
	freed, err := c.Step(tgt)
	if err != nil {
		t.Fatal(err)
	}
	if !freed {
		t.Fatal("fourth step did not finish the victim")
	}
	if len(tgt.begun) != 1 {
		t.Fatalf("victim begun %d times, want once across resumed steps", len(tgt.begun))
	}
	if c.Preemptions() != 3 {
		t.Fatalf("preemptions %d, want 3", c.Preemptions())
	}
	if c.Steps() != 4 {
		t.Fatalf("steps %d, want 4", c.Steps())
	}
	if c.PagesCopied() != 4 {
		t.Fatalf("copied %d, want 4", c.PagesCopied())
	}
}

func TestCollectResumesPreemptedVictim(t *testing.T) {
	// A background step checkpoints block 1 mid-drain; a foreground
	// Collect must finish block 1, not select block 0 (the view's
	// greedy choice would be whichever has fewer valid — make block 0
	// strictly more attractive to prove the checkpoint wins).
	tgt, _ := targetWith([]int{0, 2}, map[nand.BlockID][]bool{
		0: {false},
		1: {true, true},
	})
	tgt.view.valid[0] = 5 // block 1 is the greedy pick first
	tgt.view.valid[1] = 2
	c := NewCollector(Greedy{}, 1)
	if freed, err := c.Step(tgt); err != nil || freed {
		t.Fatalf("priming step: freed=%v err=%v", freed, err)
	}
	if !c.InFlight(1) {
		t.Fatal("priming step did not checkpoint block 1")
	}
	tgt.view.valid[0] = 0 // now block 0 looks better — must be ignored
	if err := c.Collect(tgt); err != nil {
		t.Fatal(err)
	}
	if len(tgt.released) != 1 || tgt.released[0] != 1 {
		t.Fatalf("released %v, want checkpointed [1]", tgt.released)
	}
	if len(tgt.begun) != 1 {
		t.Fatalf("begun %v, want single Begin for the resumed victim", tgt.begun)
	}
}

func TestInFlightExclusionViaCandidate(t *testing.T) {
	// The FTL views leave the in-flight victim out of the candidate order;
	// model that here and prove a second selection never lands on it.
	tgt, view := targetWith([]int{1, 3}, map[nand.BlockID][]bool{
		0: {true, true},
		1: {true},
	})
	c := NewCollector(Greedy{}, 1)
	if freed, err := c.Step(tgt); err != nil || freed {
		t.Fatalf("priming: freed=%v err=%v", freed, err)
	}
	if !c.InFlight(0) {
		t.Fatal("expected block 0 in flight")
	}
	// A reentrant selection over a view that honours InFlight must
	// choose block 1 even though block 0 still looks cheapest.
	excl := *view
	excl.exclude = c.InFlight
	if b, ok := (Greedy{}).SelectVictim(&excl); !ok || b != 1 {
		t.Fatalf("reentrant selection picked %d ok=%v, want 1", b, ok)
	}
}

func TestNoVictimError(t *testing.T) {
	tgt, _ := targetWith([]int{-1, -1}, nil)
	c := NewCollector(Greedy{}, 0)
	if err := c.Collect(tgt); !errors.Is(err, ErrNoVictim) {
		t.Fatalf("err = %v, want ErrNoVictim", err)
	}
	if _, err := c.Step(tgt); !errors.Is(err, ErrNoVictim) {
		t.Fatalf("step err = %v, want ErrNoVictim", err)
	}
}

func TestFallbackConsultedWhenPolicyEmpty(t *testing.T) {
	tgt, _ := targetWith([]int{-1, -1}, map[nand.BlockID][]bool{
		1: {true},
	})
	tgt.fallback = func() (nand.BlockID, bool) { return 1, true }
	c := NewCollector(Greedy{}, 0)
	if err := c.Collect(tgt); err != nil {
		t.Fatal(err)
	}
	if len(tgt.released) != 1 || tgt.released[0] != 1 {
		t.Fatalf("released %v, want fallback victim [1]", tgt.released)
	}
}

func TestWorkErrorKeepsCheckpoint(t *testing.T) {
	tgt, _ := targetWith([]int{2}, map[nand.BlockID][]bool{
		0: {true, true},
	})
	c := NewCollector(Greedy{}, 0)
	boom := errors.New("program failed")
	tgt.workErr = boom
	if err := c.Collect(tgt); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The victim stays checkpointed so a retry resumes it rather than
	// abandoning a half-drained block.
	if !c.InFlight(0) {
		t.Fatal("checkpoint lost on Work error")
	}
	tgt.workErr = nil
	if err := c.Collect(tgt); err != nil {
		t.Fatal(err)
	}
	if len(tgt.released) != 1 {
		t.Fatalf("released %v after retry", tgt.released)
	}
}

func TestEmptyVictimFreesWithoutCopies(t *testing.T) {
	tgt, _ := targetWith([]int{0}, map[nand.BlockID][]bool{
		0: nil, // no pages: first Work reports done immediately
	})
	c := NewCollector(CostBenefit{}, 4)
	freed, err := c.Step(tgt)
	if err != nil || !freed {
		t.Fatalf("freed=%v err=%v", freed, err)
	}
	if c.PagesCopied() != 0 {
		t.Fatalf("copied %d from an empty victim", c.PagesCopied())
	}
}
