package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// envInfo is recorded in every result file so a number can be traced to
// the box and settings that produced it.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func readEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	// Outside a git checkout (the driver's copy is none) the commit stays
	// unknown: git would otherwise walk up and name some enclosing repo.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// usage is one getrusage snapshot of the whole process.
type usage struct {
	user, sys   time.Duration
	ctxSwitches int64
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

func (u usage) sub(p usage) usage {
	return usage{u.user - p.user, u.sys - p.sys, u.ctxSwitches - p.ctxSwitches}
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		user:        time.Duration(ru.Utime.Nano()),
		sys:         time.Duration(ru.Stime.Nano()),
		ctxSwitches: int64(ru.Nvcsw + ru.Nivcsw),
	}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

var calibSink atomic.Uint64

// calibrate times a fixed loop run on every core at once: the noise
// canary. The same loops run before and after a workload; when the two
// differ by more than canaryTolerance the box changed speed under the run
// and the result is marked noisy. The loop mixes arithmetic with random
// read-modify-writes over 32 MB, because what neighbours take from this
// box is mostly its memory system: an arithmetic-only loop kept its time
// while every workload ran a third slower. One loop per core, because a
// neighbour on the second core slows the served workloads and the Go
// collector while a single-threaded loop would not notice.
func calibrate() time.Duration {
	const words = 4 << 20 // 32 MB of uint64 per core
	// The arrays are mapped fresh from the kernel and unmapped again: taken
	// from the Go heap, which a workload has churned in between, the loop
	// after a run read 20 % slower than the one before it on an idle box.
	// Passes of 1 M iterations (6 ms) differed by 10-20 % among themselves.
	arrays := make([][]uint64, runtime.NumCPU())
	for c := range arrays {
		mem, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return 0 // no canary on this box: never marked noisy
		}
		defer syscall.Munmap(mem)
		arrays[c] = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	}
	// The first pass faults the pages in and is not timed; the fastest of
	// the rest is the box at its best just now.
	best := time.Duration(1 << 62)
	for rep := 0; rep < 6; rep++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, a := range arrays {
			wg.Add(1)
			go func(a []uint64) {
				defer wg.Done()
				x := uint64(88172645463325252)
				for i := 0; i < 4_000_000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					a[x%words] += x
				}
				calibSink.Add(x)
			}(a)
		}
		wg.Wait()
		if d := time.Since(t0); rep > 0 && d < best {
			best = d
		}
	}
	return best
}

const canaryTolerance = 0.10
