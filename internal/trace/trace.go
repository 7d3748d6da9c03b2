// Package trace reads and writes I/O traces in two formats: a line-based
// text format convenient for hand-written fixtures and inspection, and a
// compact binary format for large generated traces. The replayer that
// feeds traces to an FTL lives in internal/experiment.
//
// Text format, one request per line, '#' comments allowed:
//
//	W <lsn> <sectors> <S|->   write (S = synchronous)
//	R <lsn> <sectors>         read
//	T <lsn> <sectors>         trim
//	F                         flush (cache barrier)
//	A <nanoseconds>           advance virtual time (idle gap)
//
// ReadAny sniffs which of the two a stream holds. The served-device
// client (cmd/espclient) reads traces through it too and encodes each
// request as a wire command frame itself.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"espftl/internal/workload"
)

// magic identifies the binary format ("ESPT" + version 1).
var magic = [4]byte{'E', 'S', 'P', '1'}

// WriteText writes requests in the text format.
func WriteText(w io.Writer, reqs []workload.Request) error {
	bw := bufio.NewWriter(w)
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("trace: request %d: %w", i, err)
		}
		if _, err := fmt.Fprintln(bw, r.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.
func ReadText(r io.Reader) ([]workload.Request, error) {
	var reqs []workload.Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		req, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return reqs, nil
}

func parseLine(line string) (workload.Request, error) {
	f := strings.Fields(line)
	var req workload.Request
	atoi := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
	switch f[0] {
	case "F":
		if len(f) != 1 {
			return req, fmt.Errorf("flush takes no fields, got %d", len(f)-1)
		}
		req = workload.Request{Op: workload.OpFlush}
	case "A":
		if len(f) != 2 {
			return req, fmt.Errorf("advance needs 1 field, got %d", len(f)-1)
		}
		ns, err := atoi(f[1])
		if err != nil {
			return req, err
		}
		req = workload.Request{Op: workload.OpAdvance, Gap: time.Duration(ns)}
	case "W":
		if len(f) != 4 {
			return req, fmt.Errorf("write needs 3 fields, got %d", len(f)-1)
		}
		lsn, err := atoi(f[1])
		if err != nil {
			return req, err
		}
		n, err := atoi(f[2])
		if err != nil {
			return req, err
		}
		switch f[3] {
		case "S":
			req = workload.Request{Op: workload.OpWrite, LSN: lsn, Sectors: int(n), Sync: true}
		case "-":
			req = workload.Request{Op: workload.OpWrite, LSN: lsn, Sectors: int(n)}
		default:
			return req, fmt.Errorf("bad sync flag %q", f[3])
		}
	case "R", "T":
		if len(f) != 3 {
			return req, fmt.Errorf("%s needs 2 fields, got %d", f[0], len(f)-1)
		}
		lsn, err := atoi(f[1])
		if err != nil {
			return req, err
		}
		n, err := atoi(f[2])
		if err != nil {
			return req, err
		}
		op := workload.OpRead
		if f[0] == "T" {
			op = workload.OpTrim
		}
		req = workload.Request{Op: op, LSN: lsn, Sectors: int(n)}
	default:
		return req, fmt.Errorf("unknown op %q", f[0])
	}
	return req, req.Validate()
}

// WriteBinary writes requests in the compact binary format: a magic
// header, a count, then per request a 1-byte op+flags, varint LSN/length
// or gap.
func WriteBinary(w io.Writer, reqs []workload.Request) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(reqs))); err != nil {
		return err
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("trace: request %d: %w", i, err)
		}
		flags := byte(r.Op)
		if r.Sync {
			flags |= 0x80
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		if r.Op == workload.OpAdvance {
			if err := putUvarint(uint64(r.Gap)); err != nil {
				return err
			}
			continue
		}
		if err := putUvarint(uint64(r.LSN)); err != nil {
			return err
		}
		if err := putUvarint(uint64(r.Sectors)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format.
func ReadBinary(r io.Reader) ([]workload.Request, error) {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxReqs = 1 << 31
	if count > maxReqs {
		return nil, fmt.Errorf("trace: implausible request count %d", count)
	}
	reqs := make([]workload.Request, 0, count)
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: request %d: %w", i, err)
		}
		op := workload.Op(flags & 0x7f)
		var req workload.Request
		if op == workload.OpAdvance {
			gap, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			req = workload.Request{Op: op, Gap: time.Duration(gap)}
		} else {
			lsn, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			req = workload.Request{Op: op, LSN: int64(lsn), Sectors: int(n), Sync: flags&0x80 != 0}
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("trace: request %d: %w", i, err)
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// ReadAny detects the trace format by peeking at the first bytes and
// dispatches to ReadBinary or ReadText. Detection is explicit: a stream
// that starts with the binary magic IS binary, and its parse errors are
// surfaced rather than retried as text (a corrupt binary trace almost
// never parses as text, and silently trying buries the real error).
func ReadAny(r io.Reader) ([]workload.Request, error) {
	br := bufio.NewReader(r)
	hdr, err := br.Peek(len(magic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("trace: detecting format: %w", err)
	}
	if len(hdr) >= len(magic) && [4]byte(hdr[:4]) == magic {
		return ReadBinary(br)
	}
	return ReadText(br)
}

// Generate materializes n requests from a generator into a slice, the
// common path for building trace files with cmd/tracegen.
func Generate(g workload.Generator, n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	return reqs
}
