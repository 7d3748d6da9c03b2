package experiment

import (
	"errors"
	"fmt"

	"espftl/internal/fault"
	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/workload"
)

// SPOResult reports one sudden-power-off run: how far the workload got,
// where the lights went out, and what the mount-time recovery rebuilt.
type SPOResult struct {
	Kind Kind
	// CutOp is the absolute device-operation index the injector fired at.
	CutOp int64
	// Torn reports whether the cut tore the in-flight program.
	Torn bool
	// Crashed is false when the workload finished before reaching the cut
	// index (the run then models an orderly shutdown and remount).
	Crashed bool
	// Requests counts host requests fully serviced before the cut.
	Requests int
	// Mount is the recovery scan's report; Mount.Duration is the virtual
	// mount time.
	Mount ftl.MountReport
}

// RunSPO executes a sudden-power-off experiment: build and precondition a
// device exactly like Run, arm the injector to kill power cutAfter device
// operations into the measured phase (torn selects a mid-program tear),
// replay the workload until the cut, then power back on, mount a fresh FTL
// via Recover and verify its invariants. Only the serial generated-workload
// path is supported: a power cut inside the host scheduler or a trace gap
// has no defined resume point.
func RunSPO(cfg RunConfig, cutAfter int64, torn bool) (*SPOResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Trace != nil || cfg.QueueDepth > 0 || cfg.ArrivalRate > 0 {
		return nil, fmt.Errorf("experiment: SPO runs support the serial generated-workload path only")
	}
	profile := fault.Profile{Seed: cfg.Seed}
	if cfg.FaultProfile != nil {
		profile = *cfg.FaultProfile
	}
	inj, err := fault.NewInjector(profile)
	if err != nil {
		return nil, err
	}
	dev, f, logicalSectors, err := assemble(cfg, inj, 0)
	if err != nil {
		return nil, err
	}
	g := dev.Geometry()
	ps := int64(g.SubpagesPerPage)
	fillSectors := int64(float64(logicalSectors)*cfg.FillFrac) / ps * ps
	if err := Precondition(f, g.SubpagesPerPage, fillSectors); err != nil {
		return nil, err
	}

	// The cut index is relative to the measured phase: preconditioning is
	// identical across cut points, so sweeps stay comparable.
	res := &SPOResult{Kind: cfg.Kind, CutOp: dev.OpCount() + cutAfter, Torn: torn}
	inj.ArmSPO(res.CutOp, torn)
	gen, err := workload.NewSynthetic(cfg.Profile, fillSectors, g.SubpagesPerPage, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	res.Requests, err = replay(f, gen.Next, cfg.Requests, cfg.TickEvery, nil, nil)
	if err != nil {
		if !errors.Is(err, nand.ErrPowerLoss) {
			return nil, fmt.Errorf("experiment: SPO run: %w", err)
		}
		res.Crashed = true
	}
	if res.Crashed && dev.Alive() {
		return nil, fmt.Errorf("experiment: power loss reported but device still alive")
	}
	if !res.Crashed {
		// The workload finished before the cut index: flush (which may
		// itself hit the still-armed cut) and let the remount below measure
		// a clean-mount scan.
		if err := f.Flush(); err != nil {
			if !errors.Is(err, nand.ErrPowerLoss) {
				return nil, err
			}
			res.Crashed = true
		}
	}

	dev.PowerOn()
	dev.Clock().AdvanceTo(dev.DrainTime())
	mounted, err := buildFTL(cfg.Kind, dev, cfg, logicalSectors)
	if err != nil {
		return nil, err
	}
	rep, err := mounted.Recover()
	if err != nil {
		return nil, fmt.Errorf("experiment: recovery mount: %w", err)
	}
	res.Mount = rep
	if err := mounted.Check(); err != nil {
		return nil, fmt.Errorf("experiment: post-recovery invariant violation: %w", err)
	}
	return res, nil
}

// SweepSPO replays the whole SPO experiment once per cut index in
// [0, cuts), alternating clean cuts (even indices) with mid-program tears
// (odd indices) — the same schedule the ftltest differential sweep uses.
// Every cut is an independent run with its own device and clock, so the
// sweep fans out over the experiment worker pool; results come back in
// cut order and match a serial sweep exactly.
func SweepSPO(cfg RunConfig, cuts int) ([]*SPOResult, error) {
	out := make([]*SPOResult, cuts)
	err := forEach(cuts, func(i int) error {
		r, e := RunSPO(cfg, int64(i), i%2 == 1)
		if e != nil {
			return fmt.Errorf("cut %d: %w", i, e)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// String renders the run for tool output.
func (r *SPOResult) String() string {
	state := "clean shutdown"
	if r.Crashed {
		state = fmt.Sprintf("power cut at device op %d", r.CutOp)
		if r.Torn {
			state += " (torn program)"
		}
	}
	return fmt.Sprintf("%s: %s after %d requests; mount: %s", r.Kind, state, r.Requests, r.Mount.String())
}
