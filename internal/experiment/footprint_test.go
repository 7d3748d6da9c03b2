package experiment

import (
	"runtime"
	"testing"
)

// Each FTL's stack on the experiment device, preconditioned as a run
// preconditions it, holds at most its pinned heap per device subpage. The
// bounds are the measured footprint (39.7, 37.5 and 31.7 B) plus about
// 2 B, so widening a per-subpage array breaks them: 32-byte cells add 8 B,
// a 64-bit fgm reverse map 4 B, region arrays sized by the device rather
// than the region about 17 B. Every figure is go1.24 on linux/amd64.
func TestStackFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	for _, tc := range []struct {
		kind Kind
		max  float64 // heap bytes per device subpage
	}{
		{KindSub, 42},
		{KindFGM, 40},
		{KindCGM, 34},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			dev, f, logical, err := Build(RunConfig{Kind: tc.kind, Geometry: ExperimentGeometry})
			if err != nil {
				t.Fatal(err)
			}
			g := dev.Geometry()
			ps := int64(g.SubpagesPerPage)
			if err := Precondition(f, g.SubpagesPerPage, int64(float64(logical)*0.89)/ps*ps); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(g.TotalSubpages())
			runtime.KeepAlive(f)
			t.Logf("%s: %.1f B of heap per device subpage (%.1f MB)", tc.kind, per, per*float64(g.TotalSubpages())/(1<<20))
			if per > tc.max {
				t.Errorf("%s holds %.1f B per device subpage, want <= %.0f", tc.kind, per, tc.max)
			}
		})
	}
}
