package workload

import (
	"math"
	"strings"
	"testing"

	"espftl/internal/sim"
)

func TestRequestString(t *testing.T) {
	cases := []struct {
		r    Request
		want string
	}{
		{Request{Op: OpWrite, LSN: 10, Sectors: 2, Sync: true}, "W 10 2 S"},
		{Request{Op: OpWrite, LSN: 10, Sectors: 2}, "W 10 2 -"},
		{Request{Op: OpRead, LSN: 5, Sectors: 1}, "R 5 1"},
		{Request{Op: OpTrim, LSN: 0, Sectors: 8}, "T 0 8"},
		{Request{Op: OpAdvance, Gap: 1500}, "A 1500"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	good := []Request{
		{Op: OpWrite, LSN: 0, Sectors: 1},
		{Op: OpRead, LSN: 10, Sectors: 4},
		{Op: OpAdvance, Gap: 0},
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", r, err)
		}
	}
	bad := []Request{
		{Op: OpWrite, LSN: -1, Sectors: 1},
		{Op: OpWrite, LSN: 0, Sectors: 0},
		{Op: OpAdvance, Gap: -1},
		{Op: Op(9), LSN: 0, Sectors: 1},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted", r)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpWrite.String() != "W" || OpRead.String() != "R" || OpTrim.String() != "T" || OpAdvance.String() != "A" {
		t.Fatal("op names wrong")
	}
	if !strings.Contains(Op(7).String(), "7") {
		t.Fatal("unknown op not reported")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(sim.NewRNG(1), 10000, 0.99)
	counts := make(map[int64]int)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 10000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and the head must hold most of the mass.
	if counts[0] < counts[100] {
		t.Fatalf("rank 0 (%d) not hotter than rank 100 (%d)", counts[0], counts[100])
	}
	head := 0
	for v := int64(0); v < 100; v++ {
		head += counts[v]
	}
	if frac := float64(head) / n; frac < 0.3 {
		t.Fatalf("top-100 mass = %v, want heavily skewed (>0.3)", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(sim.NewRNG(1), 0, 0.9) },
		func() { NewZipf(sim.NewRNG(1), 10, 0) },
		func() { NewZipf(sim.NewRNG(1), 10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Zipf config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestZetaApproximationContinuity(t *testing.T) {
	// The integral tail must join the exact head smoothly.
	exact := zeta(10000, 0.99)
	approx := zeta(10001, 0.99)
	if approx <= exact || approx-exact > 0.01 {
		t.Fatalf("zeta discontinuity: %v -> %v", exact, approx)
	}
}

func TestHotColdMixture(t *testing.T) {
	h := NewHotCold(sim.NewRNG(2), 1000, 0.2, 0.8)
	const n = 100000
	hot := 0
	for i := 0; i < n; i++ {
		v := h.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("HotCold out of range: %d", v)
		}
		if v < 200 {
			hot++
		}
	}
	frac := float64(hot) / n
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("hot fraction = %v, want ~0.8", frac)
	}
}

func TestHotColdDegenerate(t *testing.T) {
	// All space hot: draws must still be in range.
	h := NewHotCold(sim.NewRNG(3), 100, 1.0, 0.5)
	for i := 0; i < 1000; i++ {
		if v := h.Next(); v < 0 || v >= 100 {
			t.Fatalf("degenerate HotCold out of range: %d", v)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	for _, p := range Benchmarks() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
	bad := Sysbench()
	bad.SmallRatio = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range SmallRatio accepted")
	}
	bad = Sysbench()
	bad.SmallSizes = nil
	if err := bad.Validate(); err == nil {
		t.Error("missing SmallSizes accepted")
	}
	bad = Sysbench()
	bad.Zipf = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range Zipf accepted")
	}
}

// Table-driven construction validation: degenerate profiles must be
// rejected with an error, never silently produce a degenerate stream.
func TestProfileValidateTable(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		mutate func(*Profile)
		ok     bool
	}{
		{"baseline", func(p *Profile) {}, true},
		{"small ratio negative", func(p *Profile) { p.SmallRatio = -0.1 }, false},
		{"small ratio above one", func(p *Profile) { p.SmallRatio = 1.01 }, false},
		{"small ratio NaN", func(p *Profile) { p.SmallRatio = nan }, false},
		{"sync ratio NaN", func(p *Profile) { p.SyncRatio = nan }, false},
		{"read ratio NaN", func(p *Profile) { p.ReadRatio = nan }, false},
		{"hot access NaN", func(p *Profile) { p.HotAccess = nan }, false},
		{"zipf zero means off", func(p *Profile) { p.Zipf = 0 }, true},
		{"zipf at one", func(p *Profile) { p.Zipf = 1 }, false},
		{"zipf negative", func(p *Profile) { p.Zipf = -0.5 }, false},
		{"zipf NaN", func(p *Profile) { p.Zipf = nan }, false},
		{"zero-size small request", func(p *Profile) { p.SmallSizes = []int{1, 0} }, false},
		{"negative small request", func(p *Profile) { p.SmallSizes = []int{-3} }, false},
		{"zero-size large request", func(p *Profile) { p.LargeSizes = []int{0} }, false},
		{"no small sizes with small writes", func(p *Profile) { p.SmallSizes = nil }, false},
		{"no large sizes with large writes", func(p *Profile) { p.LargeSizes = nil }, false},
		{"no small sizes but none requested", func(p *Profile) { p.SmallRatio = 0; p.SmallSizes = nil }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Sysbench()
			tc.mutate(&p)
			err := p.Validate()
			if tc.ok && err != nil {
				t.Errorf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("degenerate profile accepted")
			}
			// NewSynthetic must enforce the same contract.
			if _, err2 := NewSynthetic(p, 100000, 4, 1); !tc.ok && err2 == nil {
				t.Error("NewSynthetic accepted a degenerate profile")
			}
		})
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	mk := func() *Synthetic {
		g, err := NewSynthetic(Varmail(), 100000, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("streams diverged at %d: %v vs %v", i, ra, rb)
		}
	}
}

func TestSyntheticRequestsValid(t *testing.T) {
	for _, prof := range Benchmarks() {
		g, err := NewSynthetic(prof, 50000, 4, 7)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		for i := 0; i < 20000; i++ {
			r := g.Next()
			if err := r.Validate(); err != nil {
				t.Fatalf("%s request %d invalid: %v", prof.Name, i, err)
			}
			if r.LSN+int64(r.Sectors) > 50000 {
				t.Fatalf("%s request %d overruns space: %v", prof.Name, i, r)
			}
		}
	}
}

// The generator must realize the profile's r_small, r_synch and read
// ratios within sampling error — Table 1's small-write percentages are
// produced exactly this way.
func TestSyntheticRatios(t *testing.T) {
	for _, prof := range Benchmarks() {
		g, err := NewSynthetic(prof, 200000, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		var writes, smalls, syncs, reads int
		const n = 100000
		for i := 0; i < n; i++ {
			r := g.Next()
			switch r.Op {
			case OpRead:
				reads++
			case OpWrite:
				writes++
				if r.Sectors < 4 {
					smalls++
					if r.Sync {
						syncs++
					}
				}
			}
		}
		rSmall := float64(smalls) / float64(writes)
		if math.Abs(rSmall-prof.SmallRatio) > 0.02 {
			t.Errorf("%s: r_small = %v, want %v", prof.Name, rSmall, prof.SmallRatio)
		}
		if smalls > 1000 {
			rSync := float64(syncs) / float64(smalls)
			if math.Abs(rSync-prof.SyncRatio) > 0.03 {
				t.Errorf("%s: r_synch = %v, want %v", prof.Name, rSync, prof.SyncRatio)
			}
		}
		rRead := float64(reads) / float64(n)
		if math.Abs(rRead-prof.ReadRatio) > 0.02 {
			t.Errorf("%s: read ratio = %v, want %v", prof.Name, rRead, prof.ReadRatio)
		}
	}
}

func TestSyntheticLargeWriteAlignment(t *testing.T) {
	prof := SweepProfile(0, 0) // all large writes
	prof.LargeAlignedProb = 1
	prof.LargeSeqProb = 0
	g, err := NewSynthetic(prof, 100000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		r := g.Next()
		if r.LSN%4 != 0 {
			t.Fatalf("aligned profile produced misaligned write at %d", r.LSN)
		}
	}
	prof.LargeAlignedProb = 0
	g, err = NewSynthetic(prof, 100000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	misaligned := 0
	for i := 0; i < 2000; i++ {
		if g.Next().LSN%4 != 0 {
			misaligned++
		}
	}
	if misaligned < 1900 {
		t.Fatalf("misaligned profile produced only %d/2000 misaligned writes", misaligned)
	}
}

func TestSyntheticSequentialLargeWrites(t *testing.T) {
	prof := SweepProfile(0, 0)
	prof.LargeSeqProb = 1
	prof.LargeSizes = []int{4}
	g, err := NewSynthetic(prof, 100000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := g.Next()
	seq := 0
	for i := 0; i < 1000; i++ {
		r := g.Next()
		if r.LSN == prev.LSN+int64(prev.Sectors) {
			seq++
		}
		prev = r
	}
	if seq < 990 {
		t.Fatalf("sequential profile produced only %d/1000 sequential writes", seq)
	}
}

func TestSyntheticRejectsBadConfig(t *testing.T) {
	if _, err := NewSynthetic(Sysbench(), 4, 4, 1); err == nil {
		t.Error("tiny space accepted")
	}
	p := Sysbench()
	p.SmallSizes = []int{4} // not smaller than a page
	if _, err := NewSynthetic(p, 10000, 4, 1); err == nil {
		t.Error("small size == page accepted")
	}
	p = Sysbench()
	p.LargeSizes = []int{2} // below a page
	if _, err := NewSynthetic(p, 10000, 4, 1); err == nil {
		t.Error("large size < page accepted")
	}
}

func TestSyntheticZipfMode(t *testing.T) {
	p := Sysbench()
	p.Zipf = 0.99
	g, err := NewSynthetic(p, 10000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int64]int)
	for i := 0; i < 20000; i++ {
		r := g.Next()
		if r.Op == OpWrite && r.Sectors < 4 {
			counts[r.LSN]++
		}
	}
	if counts[0] == 0 {
		t.Fatal("Zipf mode never hit rank 0")
	}
}

func TestSweepProfileName(t *testing.T) {
	p := SweepProfile(0.4, 0.5)
	if !strings.Contains(p.Name, "0.40") || !strings.Contains(p.Name, "0.50") {
		t.Fatalf("sweep name = %q", p.Name)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSyntheticNextAllocs: request generation sits inside every replay
// loop (and the client's send loop), so Next must not touch the heap on
// any of the five benchmark profiles.
func TestSyntheticNextAllocs(t *testing.T) {
	for _, prof := range Benchmarks() {
		gen, err := NewSynthetic(prof, 1<<20, 4, 3)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		avg := testing.AllocsPerRun(1000, func() {
			if r := gen.Next(); r.Sectors <= 0 {
				t.Fatalf("%s: bad request %v", prof.Name, r)
			}
		})
		if avg != 0 {
			t.Errorf("%s: Next allocates %.1f objects per request, want 0", prof.Name, avg)
		}
	}
}

// TestSelect: -rsmall >= 0 picks the sweep profile whatever the name, a
// benchmark name matches case-insensitively, and an unknown one is an
// error naming it.
func TestSelect(t *testing.T) {
	if p, err := Select("nope", 0.8, 1); err != nil || p.Name != SweepProfile(0.8, 1).Name {
		t.Fatalf("sweep: %q, %v", p.Name, err)
	}
	if p, err := Select("TPC-c", -1, 1); err != nil || p.Name != TPCC().Name {
		t.Fatalf("tpc-c: %q, %v", p.Name, err)
	}
	if _, err := Select("nope", -1, 1); err == nil || err.Error() != `unknown profile "nope"` {
		t.Fatalf("unknown profile: %v", err)
	}
}
