package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"espftl/internal/experiment"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// Micro-measurements of single layers, taken from outside them around
// their public calls. They run in traced mode only and never inside a
// timed window.

// nandKernels is the host time of one device operation of each kind.
type nandKernels struct{ program, subprogram, read, erase float64 } // ns

// measureNAND times the four device operations in loops on a scratch
// device of the given geometry: erase a block, program its pages, read
// them back, then walk the erase-free subpage passes.
func measureNAND(geo nand.Geometry) (nandKernels, error) {
	cfg := nand.DefaultConfig()
	cfg.Geometry = geo
	cfg.DisableRetentionErrors = true
	dev, err := nand.NewDevice(cfg, sim.NewClock(0))
	if err != nil {
		return nandKernels{}, err
	}
	blocks := geo.TotalBlocks()
	if blocks > 256 {
		blocks = 256
	}
	pages := int64(blocks * geo.PagesPerBlock)
	stamps := make([]nand.Stamp, geo.SubpagesPerPage)
	for i := range stamps {
		stamps[i] = nand.Stamp{LSN: int64(i), Version: 1}
	}
	var k nandKernels

	t0 := time.Now()
	for b := 0; b < blocks; b++ {
		for p := 0; p < geo.PagesPerBlock; p++ {
			if _, err := dev.ProgramPage(geo.PageOf(nand.BlockID(b), p), stamps); err != nil {
				return k, fmt.Errorf("nand kernel program: %w", err)
			}
		}
	}
	k.program = float64(time.Since(t0)) / float64(pages)

	t0 = time.Now()
	for b := 0; b < blocks; b++ {
		for p := 0; p < geo.PagesPerBlock; p++ {
			if _, _, err := dev.ReadPage(geo.PageOf(nand.BlockID(b), p)); err != nil {
				return k, fmt.Errorf("nand kernel read: %w", err)
			}
		}
	}
	k.read = float64(time.Since(t0)) / float64(pages)

	t0 = time.Now()
	for b := 0; b < blocks; b++ {
		if _, err := dev.Erase(nand.BlockID(b)); err != nil {
			return k, fmt.Errorf("nand kernel erase: %w", err)
		}
	}
	k.erase = float64(time.Since(t0)) / float64(blocks)

	t0 = time.Now()
	for sub := 0; sub < geo.SubpagesPerPage; sub++ {
		for b := 0; b < blocks; b++ {
			for p := 0; p < geo.PagesPerBlock; p++ {
				if _, err := dev.ProgramSubpage(geo.PageOf(nand.BlockID(b), p), sub, stamps[sub]); err != nil {
					return k, fmt.Errorf("nand kernel subprogram: %w", err)
				}
			}
		}
	}
	k.subprogram = float64(time.Since(t0)) / float64(pages*int64(geo.SubpagesPerPage))
	return k, nil
}

// measureWire times the codec over memory: a command encoded with
// AppendCmd and decoded by a CmdReader, a reply encoded with AppendReply
// and decoded by a ReplyReader. It also returns the bytes one request
// puts on the wire in both directions.
func measureWire(iters int) (cmdNS, replyNS, bytesPerReq float64, err error) {
	var rd bytes.Reader
	cr := wire.NewCmdReader(&rd)
	rr := wire.NewReplyReader(&rd)
	buf := make([]byte, 0, 64)
	cmd := wire.Cmd{Op: wire.OpWrite, Sync: true, Tag: 1, Arg: 4096, Sectors: 3}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		cmd.Tag = uint64(i)
		buf = wire.AppendCmd(buf[:0], cmd)
		rd.Reset(buf)
		got, err := cr.Read()
		if err != nil || got.Tag != cmd.Tag {
			return 0, 0, 0, fmt.Errorf("wire cmd round trip: tag %d, %v", got.Tag, err)
		}
	}
	cmdNS = float64(time.Since(t0)) / float64(iters)
	cmdBytes := len(buf)
	rep := wire.Reply{Tag: 1, Status: wire.StatusOK, LatencyNS: 123456}
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		rep.Tag = uint64(i)
		buf = wire.AppendReply(buf[:0], rep)
		rd.Reset(buf)
		got, err := rr.Read()
		if err != nil || got.Tag != rep.Tag {
			return 0, 0, 0, fmt.Errorf("wire reply round trip: tag %d, %v", got.Tag, err)
		}
	}
	replyNS = float64(time.Since(t0)) / float64(iters)
	return cmdNS, replyNS, float64(cmdBytes + len(buf)), nil
}

var genSink int64

// measureGen times a request generator alone, so its share of a replay
// loop can be subtracted.
func measureGen(gen workload.Generator, iters int) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		genSink += gen.Next().LSN
	}
	return float64(time.Since(t0)) / float64(iters)
}

// measureRecover mounts a fresh FTL over the end-of-run device `mounts`
// times and returns the median host time, the virtual mount time and the
// pages scanned: the O(device) remount cost as a number (ROADMAP 1d).
func measureRecover(st *stack, mounts int) (ms, virtMS, pages float64, err error) {
	host := make([]float64, 0, mounts)
	for i := 0; i < mounts; i++ {
		f, err := freshFTL(st.kind, st.dev, st.logical, st.gc)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		rep, err := f.Recover()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("recover %s: %w", st.kind, err)
		}
		host = append(host, float64(time.Since(t0))/1e6)
		virtMS, pages = float64(rep.Duration)/1e6, float64(rep.PagesScanned)
	}
	return median(host), virtMS, pages, nil
}

// measureGrid times the Fig. 8(a) grid (five profiles x three FTLs) once
// on one worker and once on every core: what the experiment fan-out buys.
func measureGrid(requests int, seed uint64) (wall1 float64, speedup float64, err error) {
	defer experiment.SetWorkers(0)
	opts := experiment.Options{Geometry: experiment.QuickGeometry, Requests: requests, Seed: seed}
	experiment.SetWorkers(1)
	t0 := time.Now()
	if _, err := experiment.Fig8a(opts); err != nil {
		return 0, 0, err
	}
	wall1 = time.Since(t0).Seconds()
	experiment.SetWorkers(runtime.NumCPU())
	t0 = time.Now()
	if _, err := experiment.Fig8a(opts); err != nil {
		return 0, 0, err
	}
	return wall1, ratio(wall1, time.Since(t0).Seconds()), nil
}

// runtimeStats is the Go runtime's own work up to a point; sub gives the
// work between two.
type runtimeStats struct {
	mallocs, bytes uint64
	gcCycles       uint32
	pauseNS        uint64
}

func readRuntime() runtimeStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

func (r runtimeStats) sub(p runtimeStats) runtimeStats {
	return runtimeStats{r.mallocs - p.mallocs, r.bytes - p.bytes, r.gcCycles - p.gcCycles, r.pauseNS - p.pauseNS}
}

func (r runtimeStats) add(p runtimeStats) runtimeStats {
	return runtimeStats{r.mallocs + p.mallocs, r.bytes + p.bytes, r.gcCycles + p.gcCycles, r.pauseNS + p.pauseNS}
}

// meter measures what the process spent between start and stop: CPU,
// context switches and Go runtime work. Both readings sit outside the
// wall-clock window they bracket. At stop it also collects garbage and
// reads the live heap: everything the measured stack still holds.
type meter struct {
	u0, u      usage
	rt0, rt    runtimeStats
	liveHeapMB float64
}

func startMeter() meter { return meter{rt0: readRuntime(), u0: readUsage()} }

func (m *meter) stop() {
	m.u = readUsage().sub(m.u0)
	m.rt = readRuntime().sub(m.rt0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
}
