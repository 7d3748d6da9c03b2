package host

import "testing"

func all(*Command) bool  { return true }
func none(*Command) bool { return false }

func cmd(seq int64, class Class) *Command { return &Command{Seq: seq, Class: class} }

// Every arbiter resolves by exactly the name its Name method reports
// (plus "" for FIFO); no other spelling is accepted.
func TestNewArbiter(t *testing.T) {
	if a, err := NewArbiter(""); err != nil || a.Name() != "fifo" {
		t.Errorf(`NewArbiter("") = %v, %v; want fifo`, a, err)
	}
	for _, want := range []Arbiter{FIFO{}, &ReadPriority{}} {
		a, err := NewArbiter(want.Name())
		if err != nil {
			t.Fatalf("%q: %v", want.Name(), err)
		}
		if a.Name() != want.Name() {
			t.Errorf("%q resolved to %q", want.Name(), a.Name())
		}
	}
	for _, name := range []string{"readpriority", "rp", "round-robin"} {
		if _, err := NewArbiter(name); err == nil {
			t.Errorf("NewArbiter(%q) accepted", name)
		}
	}
}

func TestFIFOPicksOldestDispatchable(t *testing.T) {
	heads := []*Command{cmd(5, ClassWrite), cmd(2, ClassRead), cmd(9, ClassWrite)}
	if got := (FIFO{}).Pick(heads, all); got != 1 {
		t.Errorf("Pick = %d, want 1 (seq 2)", got)
	}
	blocked := func(c *Command) bool { return c.Seq != 2 }
	if got := (FIFO{}).Pick(heads, blocked); got != 0 {
		t.Errorf("Pick = %d, want 0 (seq 5, oldest unblocked)", got)
	}
	if got := (FIFO{}).Pick(heads, none); got != -1 {
		t.Errorf("Pick = %d, want -1 when nothing is dispatchable", got)
	}
}

func TestReadPriorityPrefersReads(t *testing.T) {
	a := &ReadPriority{}
	heads := []*Command{cmd(1, ClassWrite), cmd(7, ClassRead)}
	if got := a.Pick(heads, all); got != 1 {
		t.Errorf("Pick = %d, want 1 (the read despite its younger seq)", got)
	}
	// Without reads the oldest write goes.
	heads = []*Command{cmd(4, ClassWrite), cmd(3, ClassWrite)}
	if got := a.Pick(heads, all); got != 1 {
		t.Errorf("Pick = %d, want 1 (oldest write)", got)
	}
}

func TestReadPriorityStarvationPromotion(t *testing.T) {
	a := &ReadPriority{}
	write := cmd(1, ClassWrite)
	for i := 0; i < starvationLimit; i++ {
		heads := []*Command{write, cmd(int64(10+i), ClassRead)}
		if got := a.Pick(heads, all); got != 1 {
			t.Fatalf("bypass %d: Pick = %d, want the read", i, got)
		}
	}
	heads := []*Command{write, cmd(10+starvationLimit, ClassRead)}
	if got := a.Pick(heads, all); got != 0 {
		t.Errorf("Pick = %d, want 0: write promoted after %d bypasses", got, starvationLimit)
	}
}
