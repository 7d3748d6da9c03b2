package experiment

import (
	"strings"
	"testing"

	"espftl/internal/workload"
)

// TestLifetimeWearReduction is the subsystem's acceptance check at a
// scale where blocks really recycle: under a hot/cold small-write
// profile, the adaptive erase policy must strictly reduce accumulated
// wear units versus the fixed-deep baseline — and versus its own erase
// count, since every adaptive erase at depth < 1 accrues less than one
// deep-erase equivalent.
func TestLifetimeWearReduction(t *testing.T) {
	prof := workload.Profile{
		Name:       "hotcold-zipf",
		SmallRatio: 0.7,
		SyncRatio:  0.6,
		ReadRatio:  0.2,
		SmallSizes: []int{1, 2},
		LargeSizes: []int{4, 8},
		HotSpace:   0.2,
		HotAccess:  0.8,
	}
	mk := func(policy string, placement bool) RunConfig {
		return RunConfig{
			Kind:        KindSub,
			Requests:    20000,
			Profile:     prof,
			Seed:        1,
			LogicalFrac: 0.62,
			ErasePolicy: policy,
			Lifetime:    placement,
		}
	}
	base, err := Run(mk("", false))
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(mk("aero", true))
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Device.Erases == 0 {
		t.Fatal("baseline run never erased a block; the comparison is vacuous")
	}
	// The legacy path accrues exactly one wear unit per erase.
	if got, want := base.Stats.Device.WearUnits, float64(base.Stats.Device.Erases); got != want {
		t.Errorf("baseline wear units = %v, want exactly %v (one per erase)", got, want)
	}
	if base.Stats.Device.ShallowErases != 0 {
		t.Errorf("baseline performed %d shallow erases with no policy installed", base.Stats.Device.ShallowErases)
	}
	// The full subsystem: shallow erases happen, and cumulative effective
	// wear drops strictly below the ESP-only baseline.
	if full.Stats.Device.ShallowErases == 0 {
		t.Error("aero performed no shallow erases on a young device")
	}
	if full.Stats.Device.WearUnits >= base.Stats.Device.WearUnits {
		t.Errorf("aero+placement wear units = %v, want strictly below baseline %v",
			full.Stats.Device.WearUnits, base.Stats.Device.WearUnits)
	}
	if full.Stats.Device.WearUnits >= float64(full.Stats.Device.Erases) {
		t.Errorf("aero wear units = %v across %d erases, want < 1 per erase on a young device",
			full.Stats.Device.WearUnits, full.Stats.Device.Erases)
	}
	// The placement half actually fired, and its counters flowed through
	// the stats diff.
	if full.Stats.LifetimeObserves == 0 {
		t.Error("predictor saw no writes with placement on")
	}
	if full.Stats.LifetimeSteered+full.Stats.LifetimeSegregated == 0 {
		t.Error("placement steered and segregated nothing under a hot/cold profile")
	}
	if full.Stats.ErasePolicy != "aero" {
		t.Errorf("stats erase policy label = %q", full.Stats.ErasePolicy)
	}
	// The wear distribution snapshot covers the whole device.
	if full.Stats.Wear.Blocks == 0 || full.Stats.Wear.WearMax <= 0 {
		t.Errorf("wear distribution empty: %+v", full.Stats.Wear)
	}
	if full.Stats.Wear.WearMin > full.Stats.Wear.WearMean || full.Stats.Wear.WearMean > full.Stats.Wear.WearMax {
		t.Errorf("wear distribution disordered: %+v", full.Stats.Wear)
	}
}

// TestExtLifetime2Table runs the headline experiment end to end at a
// request count where erases occur, which arms its built-in strict
// wear-reduction check; the rendered table must carry all three
// configurations.
func TestExtLifetime2Table(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := tableByID(t, "ext-lifetime2", Options{Requests: 6000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(table.Rows))
	}
	out := table.String()
	for _, want := range []string{"ESP only (fixed deep)", "ESP + AERO erase", "ESP + AERO + longevity"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
