// Package trace reads and writes I/O traces in a line-based text format,
// convenient for hand-written fixtures and inspection. The replayer that
// feeds traces to an FTL lives in internal/experiment.
//
// One request per line, '#' comments allowed:
//
//	W <lsn> <sectors> <S|->   write (S = synchronous)
//	R <lsn> <sectors>         read
//	T <lsn> <sectors>         trim
//	F                         flush (cache barrier)
//	A <nanoseconds>           advance virtual time (idle gap)
//
// The served-device client (cmd/espclient) reads traces through ReadText
// too and encodes each request as a wire command frame itself.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"espftl/internal/workload"
)

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
		return nil, fmt.Errorf("trace: line %d: %w", lineNo+1, err)
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

// Generate materializes n requests from a generator into a slice, the
// common path for building trace files with cmd/tracegen.
func Generate(g workload.Generator, n int) []workload.Request {
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = g.Next()
	}
	return reqs
}
