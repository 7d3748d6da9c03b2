package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimelineReserveSequential(t *testing.T) {
	tl := NewTimeline("chip0")
	s, e := tl.Reserve(0, 100*time.Nanosecond)
	if s != 0 || e != 100 {
		t.Fatalf("first reserve = [%v,%v], want [0,100]", s, e)
	}
	// A request arriving at t=10 must queue behind the first.
	s, e = tl.Reserve(10, 50*time.Nanosecond)
	if s != 100 || e != 150 {
		t.Fatalf("queued reserve = [%v,%v], want [100,150]", s, e)
	}
	// A request arriving after the resource drained starts immediately.
	s, e = tl.Reserve(1000, 25*time.Nanosecond)
	if s != 1000 || e != 1025 {
		t.Fatalf("idle reserve = [%v,%v], want [1000,1025]", s, e)
	}
}

func TestTimelineBusyAccounting(t *testing.T) {
	tl := NewTimeline("bus")
	tl.Reserve(0, 40*time.Nanosecond)
	tl.Reserve(0, 60*time.Nanosecond)
	if got := tl.Busy(); got != 100*time.Nanosecond {
		t.Fatalf("Busy = %v, want 100ns", got)
	}
	if got := tl.Ops(); got != 2 {
		t.Fatalf("Ops = %d, want 2", got)
	}
	if u := tl.Utilization(200); u != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
	if u := tl.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", u)
	}
}

func TestTimelineReset(t *testing.T) {
	tl := NewTimeline("chip")
	tl.Reserve(0, time.Microsecond)
	tl.Reset()
	if tl.FreeAt() != 0 || tl.Busy() != 0 || tl.Ops() != 0 {
		t.Fatalf("Reset left state: freeAt=%v busy=%v ops=%d", tl.FreeAt(), tl.Busy(), tl.Ops())
	}
}

func TestTimelineNegativeReservePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Reserve did not panic")
		}
	}()
	NewTimeline("x").Reserve(0, -time.Nanosecond)
}

// Regression for the granted-start contract under concurrent issue: when
// several overlapping requests are issued against the same resource at
// the same earliest time — exactly what the host scheduler does when it
// dispatches a burst of commands to one chip while the clock stands
// still — each reservation must be granted the start *after* the
// previously granted work, never the earliest the caller asked for, and
// the grants must tile the timeline without overlap.
func TestTimelineOverlappingReservationsQueue(t *testing.T) {
	tl := NewTimeline("chip")
	durs := []time.Duration{70, 30, 50, 10}
	var prevEnd Time
	for i, d := range durs {
		s, e := tl.Reserve(0, d) // all claim earliest = 0
		if s != prevEnd {
			t.Fatalf("reservation %d granted start %v, want %v (queued behind prior work)", i, s, prevEnd)
		}
		if e != s.Add(d) {
			t.Fatalf("reservation %d end %v, want start+%v", i, e, d)
		}
		if i > 0 && s == 0 {
			t.Fatalf("reservation %d was granted the requested start despite the resource being busy", i)
		}
		prevEnd = e
	}
	if tl.FreeAt() != 160 {
		t.Fatalf("FreeAt = %v, want 160 (sum of all reservations)", tl.FreeAt())
	}
	// A caller whose earliest lands mid-reservation is pushed past it.
	s, e := tl.Reserve(150, 40)
	if s != 160 || e != 200 {
		t.Fatalf("mid-busy reserve = [%v,%v], want [160,200]", s, e)
	}
}

// Property: reservations never overlap and never start before the
// requested earliest time; busy time equals the sum of all durations.
func TestTimelineNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct {
		Arrive uint16
		Dur    uint8
	}) bool {
		tl := NewTimeline("p")
		var prevEnd Time
		var total time.Duration
		for _, q := range reqs {
			d := time.Duration(q.Dur)
			s, e := tl.Reserve(Time(q.Arrive), d)
			if s < Time(q.Arrive) || s < prevEnd || e != s.Add(d) {
				return false
			}
			prevEnd = e
			total += d
		}
		return tl.Busy() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
