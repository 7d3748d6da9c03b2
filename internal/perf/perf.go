// Package perf is the profile capture the command-line tools share:
// -cpuprofile/-memprofile around a run. Performance numbers come from
// benchmark/, not from here.
package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles captures CPU and heap profiles around a run. Zero-value paths
// disable the respective profile.
type Profiles struct {
	cpuFile *os.File
	memPath string
}

// Start begins CPU profiling (when cpuPath is non-empty) and remembers the
// heap-profile destination for Stop.
func Start(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("perf: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("perf: cpu profile: %w", err)
		}
		p.cpuFile = f
	}
	return p, nil
}

// Stop ends the CPU profile and writes the heap profile, if configured.
func (p *Profiles) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			return fmt.Errorf("perf: heap profile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the live heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("perf: heap profile: %w", err)
		}
	}
	return nil
}
