package ftltest

import (
	"testing"

	"espftl/internal/core"
	"espftl/internal/ftl"
	"espftl/internal/ftl/cgm"
	"espftl/internal/ftl/fgm"
	"espftl/internal/nand"
)

// crashEnvs returns one CrashEnv per FTL implementation, all over the tiny
// geometry. The factories mirror the conformance-suite configurations.
func crashEnvs() []struct {
	name string
	env  CrashEnv
} {
	const sectors = 512
	base := CrashEnv{Geometry: TinyGeometry(), Sectors: sectors, Seed: 42}
	mk := func(factory func(dev *nand.Device) (ftl.FTL, error)) CrashEnv {
		e := base
		e.Factory = factory
		return e
	}
	return []struct {
		name string
		env  CrashEnv
	}{
		{"cgmFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			return cgm.New(dev, cgm.Config{LogicalSectors: sectors, GCReserveBlocks: 3})
		})},
		{"fgmFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			return fgm.New(dev, fgm.Config{LogicalSectors: sectors, GCReserveBlocks: 3})
		})},
		{"subFTL", mk(func(dev *nand.Device) (ftl.FTL, error) {
			cfg := core.DefaultConfig(sectors)
			cfg.GCReserveBlocks = 3
			cfg.BufferSectors = 32
			return core.New(dev, cfg)
		})},
	}
}

// TestSPOSweep cuts power at every device-operation index of the mixed
// script — alternating clean cuts and mid-program tears — and verifies
// recovery against the reference model for each of the three FTLs.
func TestSPOSweep(t *testing.T) {
	for _, c := range crashEnvs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			script := MixedScript(c.env.Sectors, c.env.Geometry.SubpagesPerPage, 80, 7)
			SPOSweep(t, c.env, script)
		})
	}
}

// TestCrashAfterCleanShutdown remounts a device that was not cut at all:
// every flushed sector must come back at exactly its acknowledged version.
func TestCrashAfterCleanShutdown(t *testing.T) {
	for _, c := range crashEnvs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dev, _ := c.env.NewDevice(t)
			f, err := c.env.Factory(dev)
			if err != nil {
				t.Fatal(err)
			}
			m := NewModel(c.env.Sectors)
			script := MixedScript(c.env.Sectors, c.env.Geometry.SubpagesPerPage, 60, 11)
			if crashed := replay(t, f, script, m); crashed {
				t.Fatal("unexpected power loss")
			}
			// Simulate an orderly power-down: no RAM state survives, but
			// everything acknowledged was flushed by the script's trailing
			// flush.
			VerifyRecovered(t, c.env, dev, m, -1)
		})
	}
}

// TestRecoverOnEmptyDevice mounts a never-written device: nothing to scan
// beyond the erased blocks, nothing live, and the FTL must accept writes.
func TestRecoverOnEmptyDevice(t *testing.T) {
	for _, c := range crashEnvs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			dev, _ := c.env.NewDevice(t)
			VerifyRecovered(t, c.env, dev, NewModel(c.env.Sectors), -1)
		})
	}
}
