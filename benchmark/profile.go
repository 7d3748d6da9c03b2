package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
)

// The served path's CPU is attributed to layers with a CPU profile taken
// from this process around the timed window: the only instrument that sees
// inside the server's goroutines without editing them. A sample belongs to
// the layer whose code was running — the innermost frame from this module
// — together with whatever the Go runtime, the standard library and the
// kernel did beneath that frame. Samples with no frame of the module (the
// Go scheduler looking for work, collector workers) belong to no layer.

// Layers a sample of the served run can belong to.
const (
	layerClient = "client" // the benchmark's own load generator, both directions
	layerServer = "server" // internal/server: connection reader and writer, admission, fragment join
	layerHost   = "host"   // internal/host: the engine's scheduler
	layerFTL    = "ftl"    // everything beneath: FTLs, collector, mapping, NAND model
	layerNone   = "none"
)

// layerOf names the layer of a function of this module, "" for any other
// function and for the module's helper packages, whose time belongs to
// whichever layer called them: the codec (its share is bounded by
// wire.*_roundtrip_ns, and its socket reads would otherwise count as codec
// time), histograms, the clock and the request generator.
func layerOf(fn string) string {
	const mod = "espftl/internal/"
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "espftl/benchmark."): // the latter under `go test`
		return layerClient
	case !strings.HasPrefix(fn, mod):
		return ""
	}
	pkg := fn[len(mod):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "wire", "metrics", "sim", "workload":
		return ""
	case "server":
		return layerServer
	case "host":
		return layerHost
	}
	return layerFTL
}

// cpuProfile is a CPU profile being taken.
type cpuProfile struct{ buf bytes.Buffer }

// profiling admits one profile at a time, which is all the runtime allows:
// a run takes one, but the package's tests run workloads in parallel.
var profiling sync.Mutex

func startCPUProfile() (*cpuProfile, error) {
	profiling.Lock()
	p := new(cpuProfile)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		profiling.Unlock()
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the CPU nanoseconds sampled in each
// layer and the profile itself (gzip-compressed protobuf, as `go tool
// pprof` reads it).
func (p *cpuProfile) stop() (map[string]int64, []byte, error) {
	pprof.StopCPUProfile()
	profiling.Unlock()
	raw := p.buf.Bytes()
	byLayer, err := attributeProfile(raw)
	return byLayer, raw, err
}

// attributeProfile sums a CPU profile's sampled nanoseconds by layer.
func attributeProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// profile.proto: Profile{sample=2, location=4, function=5,
	// string_table=6}; Sample{location_id=1, value=2};
	// Location{id=1, line=4}; Line{function_id=1};
	// Function{id=1, name=2 (index into string_table)}.
	type sample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location -> functions, innermost (inlined) first
		funcName = map[uint64]uint64{}   // function -> string index
		strs     []string
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// A CPU profile's values are [samples, nanoseconds].
			if len(vals) > 0 {
				s.ns = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		layer := layerNone
	stack: // innermost frame first
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					if l := layerOf(strs[idx]); l != "" {
						layer = l
						break stack
					}
				}
			}
		}
		out[layer] += s.ns
	}
	return out, nil
}

// eachField walks the fields of one protobuf message: v carries a varint
// field's value, b a length-delimited field's bytes.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("malformed field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return fmt.Errorf("malformed varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("truncated field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value when
// the field came unpacked (b nil), the packed run otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
