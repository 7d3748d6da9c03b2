package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"espftl/internal/workload"
)

func errAt(i int) error { return fmt.Errorf("cell %d failed", i) }

// TestParallelMatchesSerial is the determinism contract for the worker
// pool: every figure, benchmark table and ablation must render to the
// exact same bytes whether the all-ids grid ran on one worker (the serial
// path) or fanned out. Workers is pinned to 8 regardless of GOMAXPROCS so
// the concurrent claiming/collection machinery is exercised — and racing
// is visible to -race — even on a single-core host.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure regeneration; skipped in -short")
	}
	o := tinyOpts()
	SetWorkers(1)
	serial, serialErrs := Regenerate(All(), o)
	SetWorkers(8)
	parallel, parallelErrs := Regenerate(All(), o)
	SetWorkers(0)
	for i, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			// Some figures refuse to render at the tiny smoke sizing
			// (fig2b needs enough load to trigger GC); the contract then
			// is that both paths report the identical refusal.
			if serialErr, parallelErr := serialErrs[i], parallelErrs[i]; serialErr != nil || parallelErr != nil {
				if serialErr == nil || parallelErr == nil || serialErr.Error() != parallelErr.Error() {
					t.Fatalf("error mismatch: serial=%v parallel=%v", serialErr, parallelErr)
				}
				return
			}
			if got, want := parallel[i].String(), serial[i].String(); got != want {
				t.Errorf("parallel output diverges from serial\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestSweepSPOMatchesSerial pins the SPO remount sweep to the same
// contract: per-cut results collected from the pool must be identical,
// cut for cut, to a serial loop over RunSPO.
func TestSweepSPOMatchesSerial(t *testing.T) {
	cfg := tinyRun(KindSub, workload.Varmail())
	cfg.Requests = 60
	const cuts = 12

	SetWorkers(1)
	serial, err := SweepSPO(cfg, cuts)
	SetWorkers(0)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	SetWorkers(8)
	parallel, err := SweepSPO(cfg, cuts)
	SetWorkers(0)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	if len(serial) != cuts || len(parallel) != cuts {
		t.Fatalf("sweep lengths: serial=%d parallel=%d", len(serial), len(parallel))
	}
	for i := range serial {
		if got, want := parallel[i].String(), serial[i].String(); got != want {
			t.Errorf("cut %d diverges\nserial:   %s\nparallel: %s", i, want, got)
		}
	}
}

// TestWorkersOverride checks the precedence chain: an explicit SetWorkers
// beats the GOMAXPROCS default, and SetWorkers(0) restores it.
func TestWorkersOverride(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	if got := Workers(); got != def {
		t.Fatalf("default: got %d, want GOMAXPROCS %d", got, def)
	}
	SetWorkers(def + 4)
	defer SetWorkers(0)
	if got := Workers(); got != def+4 {
		t.Fatalf("SetWorkers override: got %d, want %d", got, def+4)
	}
	SetWorkers(0)
	if got := Workers(); got != def {
		t.Fatalf("restore default: got %d, want GOMAXPROCS %d", got, def)
	}
}

// TestForEachErrorIsLowestIndex verifies the pool reports the same error
// a serial first-failure loop would, regardless of completion order.
func TestForEachErrorIsLowestIndex(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	err := forEach(64, func(i int) error {
		if i >= 7 {
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != errAt(7).Error() {
		t.Fatalf("got %v, want %v", err, errAt(7))
	}
}
