package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 1}, {0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n       int
		pct     float64
		wantVal int64
	}{
		{19, 0, 0},             // 50 % leaves 9 beyond
		{20, 50, 10},           // 50 % leaves 10 beyond
		{1000, 99, 990},        // 99.9 % would leave 1
		{10000, 99.9, 9990},    // 99.99 % would leave 1
		{100000, 99.99, 99990}, // exactly ten beyond
		{99999, 99.9, 99900},   // 99.99 % leaves 9
		{1000000, 99.999, 999990},
	} {
		pct, v := tailPercentile(mk(c.n))
		if !near(pct, c.pct) || v != c.wantVal {
			t.Errorf("n=%d: tail p%v = %d, want p%v = %d", c.n, pct, v, c.pct, c.wantVal)
		}
	}
}

// Reference values are Python's statistics.median and
// statistics.quantiles(v, n=4), which the acceptance rule is stated in.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.2, 9.5, 4.4}, 2.425, 3.75, 8.225},
		{[]float64{5, 7}, 4.5, 6, 7.5},
		{[]float64{1.0, 1.1, 1.2, 1.5, 1.9, 2.0, 2.2, 3.0, 3.3, 8.0, 9.1}, 1.2, 2.0, 3.3},
	} {
		q1, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q3, c.q3) || !near(median(c.v), c.med) {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v %v %v", c.v, q1, median(c.v), q3, c.q1, c.med, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if spread([]float64{4}) != 0 || spread(nil) != 0 {
		t.Error("fewer than two values must have no spread")
	}
}

func TestDigestSeparatesValuesAndOrder(t *testing.T) {
	d := func(vals ...int64) string {
		x := newDigest()
		x.add(vals...)
		return x.String()
	}
	if d(1, 2, 3) != d(1, 2, 3) {
		t.Error("equal inputs hash differently")
	}
	if d(1, 2, 3) == d(1, 3, 2) || d(1, 2, 3) == d(1, 2, 4) {
		t.Error("different inputs hash alike")
	}
	a, b := newDigest(), newDigest()
	a.add(1)
	a.add(2)
	b.add(1, 2)
	if a.String() == b.String() {
		t.Error("two windows folded one after the other hash like one window")
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDecl{Name: "req_per_s", Better: "higher", Bound: 0.10}
	lower := metricDecl{Name: "cpu_us_per_req", Better: "lower", Bound: 0.10}
	steadyA := []float64{100, 101, 99, 100, 102}
	noisyA := []float64{100, 140, 70, 100, 125}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricDecl
		want string
	}{
		{"inside the bound", steadyA, []float64{96, 97, 95, 96, 98}, higher, "same"},
		{"lost more than the bound", steadyA, []float64{85, 86, 84, 85, 87}, higher, "worse"},
		{"gained more than the bound", steadyA, []float64{120, 121, 119, 120, 122}, higher, "better"},
		{"lower is better: higher reads worse", steadyA, []float64{120, 121, 119, 120, 122}, lower, "worse"},
		{"spread wider than the bound", noisyA, []float64{85, 120, 60, 84, 110}, higher, "unresolved"},
		{"wide spread but every run below", noisyA, []float64{50, 55, 45, 52, 60}, higher, "worse"},
		{"no runs on one side", steadyA, nil, higher, "missing"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// A simulated metric of a deterministic workload is held to pairedBound
// seed by seed, however far apart the seeds themselves lie.
func TestPairedVerdict(t *testing.T) {
	waf := metricDecl{Name: "waf", Better: "lower", Bound: 0.10, Simulated: true}
	a := map[uint64]float64{1: 2.00, 2: 2.30, 3: 1.80}
	for _, c := range []struct {
		name string
		b    map[uint64]float64
		want string
	}{
		{"identical", map[uint64]float64{1: 2.00, 2: 2.30, 3: 1.80}, "same"},
		{"one seed 2 % higher", map[uint64]float64{1: 2.00, 2: 2.346, 3: 1.80}, "worse"},
		{"every seed 2 % lower", map[uint64]float64{1: 1.96, 2: 2.254, 3: 1.764}, "better"},
		{"one seed better, one worse", map[uint64]float64{1: 1.90, 2: 2.40, 3: 1.80}, "worse"},
		{"inside 1 %", map[uint64]float64{1: 2.01, 2: 2.29, 3: 1.80}, "same"},
		{"no seed in common", map[uint64]float64{7: 2.00}, "missing"},
	} {
		if got, _ := pairedVerdict(a, c.b, waf); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The same 9 % regression that the medians-against-bound rule calls
	// "same" under waf's 10 % bound.
	if got := verdict([]float64{2.00, 2.02, 1.99}, []float64{2.18, 2.20, 2.17}, waf); got != "same" {
		t.Fatalf("unpaired verdict %q: the case no longer shows what pairing is for", got)
	}
	if got, _ := pairedVerdict(a, map[uint64]float64{1: 2.18, 2: 2.507, 3: 1.962}, waf); got != "worse" {
		t.Errorf("paired verdict %q on a 9 %% regression, want worse", got)
	}
}

func TestResultSetPutAndDigestDiff(t *testing.T) {
	set := &resultSet{Workloads: map[string][]*detail{}}
	set.put(&detail{Workload: "sim-small", Seed: 1, Digest: "aa"})
	set.put(&detail{Workload: "sim-small", Seed: 2, Digest: "bb"})
	set.put(&detail{Workload: "sim-small", Seed: 1, Digest: "cc"}) // the same seed again replaces
	runs := set.Workloads["sim-small"]
	if len(runs) != 2 || runs[0].Digest != "cc" {
		t.Fatalf("after re-running seed 1: %d runs, first digest %q; want 2 runs, cc", len(runs), runs[0].Digest)
	}
	other := []*detail{{Seed: 2, Digest: "bb"}, {Seed: 1, Digest: "cc"}, {Seed: 9, Digest: "zz"}}
	if diff := digestDiff(runs, other); diff != "" {
		t.Errorf("equal digests on the common seeds reported as %q", diff)
	}
	other[0].Digest = "b0"
	if diff := digestDiff(runs, other); diff != "seed 2: A bb, B b0" {
		t.Errorf("digest difference reported as %q", diff)
	}
}

var spinSink uint64

// The profile reader must find this package's own frames and account for
// the CPU the process burned: it is what the served ladder rests on.
func TestCPUProfileAttribution(t *testing.T) {
	if layerOf("espftl/internal/server.(*conn).readLoop") != layerServer ||
		layerOf("espftl/internal/host.(*Scheduler).dispatch") != layerHost ||
		layerOf("espftl/internal/ftl/fgm.(*FTL).Write") != layerFTL ||
		layerOf("espftl/internal/nand.(*Device).Erase") != layerFTL ||
		layerOf("main.(*benchConn).drive") != layerClient ||
		layerOf("espftl/benchmark.(*benchConn).drive") != layerClient ||
		layerOf("espftl/internal/wire.(*CmdReader).Read") != "" ||
		layerOf("runtime.findRunnable") != "" {
		t.Fatal("layerOf misplaces a function")
	}
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	u0 := readUsage()
	// The spin works on a local: under -race every access to a global goes
	// through the race detector's C code, whose samples carry no Go frames.
	x := uint64(1)
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 100_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
	cpu := readUsage().sub(u0).cpu()
	byLayer, raw, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("no profile bytes")
	}
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	if got := time.Duration(byLayer[layerClient]); got < 150*time.Millisecond {
		t.Errorf("%v sampled in this package's frames, want most of the 300 ms spin (all layers: %v)", got, byLayer)
	}
	if time.Duration(total) > 2*cpu+100*time.Millisecond {
		t.Errorf("profile sums to %v, the process used %v", time.Duration(total), cpu)
	}
}
