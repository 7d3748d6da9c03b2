package ftltest

import (
	"errors"
	"fmt"
	"testing"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
)

// This file is the model-based differential crash checker: drive a scripted
// workload against a real FTL and the reference Model in lockstep, cut
// power at a chosen device-operation index, remount, and assert that the
// recovered FTL agrees with the model on every sector — acknowledged
// writes survive, unacknowledged ones are at most the one the crash caught
// in flight, and the mount itself is a single OOB scan with no payload
// reads.

// CrashOpKind enumerates the host operations a crash script can contain.
type CrashOpKind uint8

// The script operations.
const (
	CrashWrite CrashOpKind = iota
	CrashRead
	CrashTrim
	CrashFlush
	CrashTick
)

// CrashOp is one scripted host request.
type CrashOp struct {
	Kind    CrashOpKind
	LSN     int64
	Sectors int
	Sync    bool
}

// CrashEnv describes the device and FTL a crash run is built over. Factory
// must construct a cold FTL over the given device without performing any
// flash operations: the same factory mounts the pre-crash FTL and, after
// PowerOn, the recovering one.
type CrashEnv struct {
	Geometry nand.Geometry
	// Sectors is the logical space the factory exports.
	Sectors int64
	Seed    uint64
	Factory func(dev *nand.Device) (ftl.FTL, error)
}

// NewDevice builds a fresh powered device with an armed-capable injector
// (all probabilistic faults off, so power loss is the only injected event).
func (e CrashEnv) NewDevice(t *testing.T) (*nand.Device, *fault.Injector) {
	t.Helper()
	inj, err := fault.NewInjector(fault.Profile{Seed: e.Seed})
	if err != nil {
		t.Fatalf("crash injector: %v", err)
	}
	cfg := nand.DefaultConfig()
	cfg.Geometry = e.Geometry
	cfg.Fault = inj
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		t.Fatalf("crash device: %v", err)
	}
	return dev, inj
}

// replay drives the script, mirroring every acknowledged request into the
// model, and stops at the first power loss. It reports whether power was
// cut; any other error fails the test.
func replay(t *testing.T, f ftl.FTL, script []CrashOp, m *Model) bool {
	t.Helper()
	for i, op := range script {
		var err error
		switch op.Kind {
		case CrashWrite:
			err = f.Write(op.LSN, op.Sectors, op.Sync)
			if err == nil {
				m.Write(op.LSN, op.Sectors, op.Sync)
			}
		case CrashRead:
			err = f.Read(op.LSN, op.Sectors)
		case CrashTrim:
			err = f.Trim(op.LSN, op.Sectors)
			if err == nil {
				m.Trim(op.LSN, op.Sectors)
			}
		case CrashFlush:
			err = f.Flush()
			if err == nil {
				m.Flush()
			}
		case CrashTick:
			err = f.Tick()
		}
		if err == nil {
			continue
		}
		if !errors.Is(err, nand.ErrPowerLoss) {
			t.Fatalf("script op %d (%+v): %v", i, op, err)
		}
		if op.Kind == CrashWrite {
			m.CrashWrite(op.LSN, op.Sectors)
		}
		return true
	}
	return false
}

// DryRunOps replays the script with no power cut and returns the number of
// device operations it issues — the sweep domain for RunCrashAt.
func DryRunOps(t *testing.T, env CrashEnv, script []CrashOp) int64 {
	t.Helper()
	dev, _ := env.NewDevice(t)
	f, err := env.Factory(dev)
	if err != nil {
		t.Fatalf("dry-run factory: %v", err)
	}
	if crashed := replay(t, f, script, NewModel(env.Sectors)); crashed {
		t.Fatal("dry run lost power with no SPO armed")
	}
	if err := f.Check(); err != nil {
		t.Fatalf("dry-run invariants: %v", err)
	}
	return dev.OpCount()
}

// RunCrashAt builds a fresh device and FTL, arms a sudden power-off at
// device-operation index cut (torn selects the mid-program tear), replays
// the script until the lights go out, remounts, and verifies the recovered
// FTL against the model. It returns the mount report.
func RunCrashAt(t *testing.T, env CrashEnv, script []CrashOp, cut int64, torn bool) ftl.MountReport {
	t.Helper()
	dev, inj := env.NewDevice(t)
	f, err := env.Factory(dev)
	if err != nil {
		t.Fatalf("cut %d: factory: %v", cut, err)
	}
	inj.ArmSPO(cut, torn)
	m := NewModel(env.Sectors)
	if crashed := replay(t, f, script, m); !crashed {
		t.Fatalf("cut %d: script finished with power still on (%d ops issued)", cut, dev.OpCount())
	}
	if dev.Alive() {
		t.Fatalf("cut %d: power loss reported but device still alive", cut)
	}
	return VerifyRecovered(t, env, dev, m, cut)
}

// VerifyRecovered powers the device back on, mounts a fresh FTL via the
// environment's factory, and asserts the full recovery contract: the mount
// is one OOB scan with zero payload reads, the FTL's invariants hold,
// every sector's recovered version is acceptable to the model, every live
// sector is readable, and the FTL accepts new work.
func VerifyRecovered(t *testing.T, env CrashEnv, dev *nand.Device, m *Model, cut int64) ftl.MountReport {
	t.Helper()
	dev.PowerOn()
	f, err := env.Factory(dev)
	if err != nil {
		t.Fatalf("cut %d: remount factory: %v", cut, err)
	}
	before := dev.Counters()
	rep, err := f.Recover()
	if err != nil {
		t.Fatalf("cut %d: recover: %v", cut, err)
	}
	after := dev.Counters()
	if after.PageReads != before.PageReads || after.SubpageReads != before.SubpageReads {
		t.Fatalf("cut %d: recovery read payload data (%d page, %d subpage reads); the mount must be OOB-only",
			cut, after.PageReads-before.PageReads, after.SubpageReads-before.SubpageReads)
	}
	if got := after.OOBScans - before.OOBScans; got != rep.PagesScanned {
		t.Fatalf("cut %d: mount report claims %d pages scanned, device counted %d", cut, rep.PagesScanned, got)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("cut %d: recovered invariants: %v", cut, err)
	}
	for lsn := int64(0); lsn < env.Sectors; lsn++ {
		v := f.VersionOf(lsn)
		if !m.Acceptable(lsn, v) {
			t.Fatalf("cut %d: lsn %d recovered at version %d, acceptable %s", cut, lsn, v, m.Describe(lsn))
		}
		if v > 0 {
			if err := f.Read(lsn, 1); err != nil {
				t.Fatalf("cut %d: lsn %d (version %d) unreadable after recovery: %v", cut, lsn, v, err)
			}
		}
	}
	// The recovered FTL must accept new work: overwrite a few sectors and
	// read them back through the freshly rebuilt mapping.
	ps := int64(env.Geometry.SubpagesPerPage)
	for i := int64(0); i < 4; i++ {
		if err := f.Write(i*ps, 1, true); err != nil {
			t.Fatalf("cut %d: post-mount write: %v", cut, err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatalf("cut %d: post-mount flush: %v", cut, err)
	}
	for i := int64(0); i < 4; i++ {
		if err := f.Read(i*ps, 1); err != nil {
			t.Fatalf("cut %d: post-mount read: %v", cut, err)
		}
	}
	if err := f.Check(); err != nil {
		t.Fatalf("cut %d: post-mount invariants: %v", cut, err)
	}
	return rep
}

// SPOSweep is the full regression: cut power at every device-operation
// index the script reaches (alternating clean cuts and mid-program tears)
// and verify recovery each time.
func SPOSweep(t *testing.T, env CrashEnv, script []CrashOp) {
	t.Helper()
	total := DryRunOps(t, env, script)
	if total == 0 {
		t.Fatal("script issues no device operations")
	}
	// Every cut point is an independent replay on its own device, so the
	// sweep fans out across parallel subtests; the per-cut subtest name
	// keeps failures addressable with -run.
	for cut := int64(0); cut < total; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			t.Parallel()
			RunCrashAt(t, env, script, cut, cut%2 == 1)
		})
	}
}

// MixedScript builds the deterministic workload the sweep replays: small
// sync and async writes over a hot working set (forcing buffer merges and
// subpage traffic), large and misaligned writes, trims, periodic flushes
// and reads. The mix is sized so a tiny device sees every FTL mechanism
// without making the op-index sweep quadratic in runtime.
func MixedScript(sectors int64, pageSecs int, n int, seed uint64) []CrashOp {
	rng := sim.NewRNG(seed)
	ws := sectors / 4 // hot working set: forces overwrites and GC pressure
	var script []CrashOp
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // small sync write
			script = append(script, CrashOp{Kind: CrashWrite, LSN: rng.Int63n(ws), Sectors: 1 + rng.Intn(pageSecs-1), Sync: true})
		case 3, 4, 5: // small async write
			script = append(script, CrashOp{Kind: CrashWrite, LSN: rng.Int63n(ws), Sectors: 1 + rng.Intn(pageSecs-1)})
		case 6: // large (possibly misaligned) write
			size := pageSecs + rng.Intn(pageSecs*2)
			script = append(script, CrashOp{Kind: CrashWrite, LSN: rng.Int63n(sectors - int64(size)), Sectors: size})
		case 7: // read
			script = append(script, CrashOp{Kind: CrashRead, LSN: rng.Int63n(ws), Sectors: 1 + rng.Intn(pageSecs)})
		case 8: // trim
			script = append(script, CrashOp{Kind: CrashTrim, LSN: rng.Int63n(ws), Sectors: 1 + rng.Intn(pageSecs)})
		case 9:
			script = append(script, CrashOp{Kind: CrashFlush})
		}
	}
	script = append(script, CrashOp{Kind: CrashFlush})
	return script
}
