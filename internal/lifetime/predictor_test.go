package lifetime

import (
	"testing"
)

func TestNewPredictorRejectsEmptySpace(t *testing.T) {
	for _, pages := range []int64{0, -1} {
		if _, err := NewPredictor(pages); err == nil {
			t.Errorf("NewPredictor(%d) accepted", pages)
		}
	}
}

// A page rewritten every few writes classifies hot; a page written twice
// and then left alone goes cold once enough other traffic has passed; a
// never-seen page stays unknown.
func TestPredictorClasses(t *testing.T) {
	const pages = 100
	p, err := NewPredictor(pages)
	if err != nil {
		t.Fatal(err)
	}
	if c := p.Class(5); c != ClassUnknown {
		t.Fatalf("never-written page classed %v", c)
	}
	// Hammer page 0 with one other write in between: interval 2.
	for i := 0; i < 10; i++ {
		p.Observe(0)
		p.Observe(1)
	}
	if c := p.Class(0); c != ClassHot {
		t.Fatalf("interval-2 page classed %v, want hot", c)
	}
	// Page 7: two observations close together, then silence. Its EWMA is
	// tiny, but staleness overrides it once 2x the page space has passed.
	p.Observe(7)
	p.Observe(7)
	for i := int64(0); i < 2*pages+1; i++ {
		p.Observe(1)
	}
	if c := p.Class(7); c != ClassCold {
		t.Fatalf("long-silent page classed %v, want cold", c)
	}
	// And its in-between twin stays unclassified.
	p.Observe(9)
	p.Observe(9)
	for i := int64(0); i < pages+pages/2; i++ {
		p.Observe(1)
	}
	if c := p.Class(9); c != ClassUnknown {
		t.Fatalf("mid-band page classed %v, want unknown", c)
	}
}

// Under MinSamples a page has no trustworthy EWMA: it can only go cold on
// raw staleness, never hot.
func TestPredictorMinSamplesGate(t *testing.T) {
	const pages = 50
	p, err := NewPredictor(pages)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(3)
	if c := p.Class(3); c != ClassUnknown {
		t.Fatalf("single-sample page classed %v", c)
	}
	for i := int64(0); i < 2*pages+1; i++ {
		p.Observe(1)
	}
	if c := p.Class(3); c != ClassCold {
		t.Fatalf("single-sample stale page classed %v, want cold", c)
	}
}

// Staleness also overrides a hot history: a formerly hot page that falls
// silent for long enough reclassifies cold, so placement never pins a
// dead-hot page to the subpage region forever.
func TestPredictorStalenessOverridesHotHistory(t *testing.T) {
	const pages = 50
	p, err := NewPredictor(pages)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p.Observe(0)
	}
	if c := p.Class(0); c != ClassHot {
		t.Fatalf("back-to-back page classed %v", c)
	}
	for i := int64(0); i < 2*pages; i++ {
		p.Observe(1)
	}
	if c := p.Class(0); c != ClassCold {
		t.Fatalf("stale formerly-hot page classed %v, want cold", c)
	}
}

func TestPredictorReset(t *testing.T) {
	p, err := NewPredictor(16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p.Observe(int64(i % 16))
	}
	if p.Observes() == 0 {
		t.Fatal("no observations recorded")
	}
	p.Reset()
	if p.Observes() != 0 {
		t.Fatalf("Observes after reset = %d", p.Observes())
	}
	for lpn := int64(0); lpn < 16; lpn++ {
		if c := p.Class(lpn); c != ClassUnknown {
			t.Fatalf("page %d classed %v after reset", lpn, c)
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassHot.String() != "hot" || ClassCold.String() != "cold" || ClassUnknown.String() != "unknown" || ClassNone.String() != "none" {
		t.Fatal("class names changed")
	}
}

// TestPredictorObserveAllocs pins the per-write predictor update at zero
// allocations: it sits on the FTL write hot path, which the repo-wide
// alloc guards require to stay off the heap.
func TestPredictorObserveAllocs(t *testing.T) {
	p, err := NewPredictor(4096)
	if err != nil {
		t.Fatal(err)
	}
	lpn := int64(0)
	avg := testing.AllocsPerRun(1000, func() {
		p.Observe(lpn)
		p.Observe(lpn + 1)
		lpn = (lpn + 2) % 4096
	})
	if avg != 0 {
		t.Errorf("Observe allocates %.2f objects per call pair, want 0", avg)
	}
	avg = testing.AllocsPerRun(1000, func() {
		_ = p.Class(lpn)
	})
	if avg != 0 {
		t.Errorf("Class allocates %.2f objects per call, want 0", avg)
	}
}

// BenchmarkLifetimePredict measures the write-path cost of the predictor:
// one Observe plus the Class consult every small write pays.
func BenchmarkLifetimePredict(b *testing.B) {
	const pages = 1 << 16
	p, err := NewPredictor(pages)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lpn := int64(i) % pages
		p.Observe(lpn)
		if p.Class(lpn) == ClassHot && i < 0 {
			b.Fatal("unreachable")
		}
	}
}
