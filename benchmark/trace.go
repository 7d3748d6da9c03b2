package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"espftl/internal/ftl"
	"espftl/internal/workload"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created. Parent is the index, within the same
// source, of the span that caused this one (-1 for a root); Req is the
// identifier shared by every span of one request (-1 when the span
// belongs to no single request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// maxCallSpans bounds the per-call spans one source keeps: a run issues
// millions of FTL calls, and every one of them is counted and timed (see
// callStats) but only the first maxCallSpans are kept as spans, so the
// span file stays readable. Phase spans are always kept.
const maxCallSpans = 20000

// spanSource is the span buffer of one goroutine; sources never share a
// buffer, so recording takes no lock.
type spanSource struct {
	Name    string `json:"source"`
	Spans   []span `json:"spans"`
	Dropped int64  `json:"dropped_call_spans"`
	calls   int
	phase   int // index of the open phase span, -1 when none
	base    time.Time
}

func (s *spanSource) now() int64 { return int64(time.Since(s.base)) }

// begin opens a phase span (precondition, warm-up, timed window, ...);
// call spans recorded until end name it as their parent. Both accept the
// nil source of an untraced repetition.
func (s *spanSource) begin(name string) int {
	if s == nil {
		return -1
	}
	s.Spans = append(s.Spans, span{Name: name, Start: s.now(), Parent: s.phase, Req: -1})
	s.phase = len(s.Spans) - 1
	return s.phase
}

func (s *spanSource) end(idx int) {
	if s == nil {
		return
	}
	s.Spans[idx].End = s.now()
	s.phase = s.Spans[idx].Parent
}

// call records one per-call span, subject to the cap.
func (s *spanSource) call(name string, start, end, req int64) {
	if s.calls >= maxCallSpans {
		s.Dropped++
		return
	}
	s.calls++
	s.Spans = append(s.Spans, span{Name: name, Start: start, End: end, Parent: s.phase, Req: req})
}

// tracer owns the sources of one traced repetition and the registry that
// links an FTL call to the client request that caused it.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	sources []*spanSource
	pending map[reqKey][]int64
}

type reqKey struct {
	op      workload.Op
	lsn     int64
	sectors int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), pending: make(map[reqKey][]int64)}
}

func (t *tracer) source(name string) *spanSource {
	s := &spanSource{Name: name, phase: -1, base: t.base}
	t.mu.Lock()
	t.sources = append(t.sources, s)
	t.mu.Unlock()
	return s
}

// register notes, before the request is sent, that id will reach the FTL
// as (op, lsn, sectors); claim hands the identifier to the FTL span. A
// request that fragments across shards arrives under other keys and stays
// unlinked (-1).
func (t *tracer) register(r workload.Request, id int64) {
	k := reqKey{r.Op, r.LSN, r.Sectors}
	t.mu.Lock()
	t.pending[k] = append(t.pending[k], id)
	t.mu.Unlock()
}

func (t *tracer) claim(r workload.Request) int64 {
	k := reqKey{r.Op, r.LSN, r.Sectors}
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.pending[k]
	if len(q) == 0 {
		return -1
	}
	id := q[0]
	if len(q) == 1 {
		delete(t.pending, k)
	} else {
		t.pending[k] = q[1:]
	}
	return id
}

func (t *tracer) write(path string, head map[string]interface{}) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	head["sources"] = t.sources
	b, err := json.Marshal(head)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// FTL call kinds the wrapper times.
const (
	callWrite = iota
	callRead
	callTrim
	callFlush
	callTick
	nCalls
)

var callNames = [nCalls]string{"write", "read", "trim", "flush", "tick"}

// fullFTL is what every FTL in this repository offers. The wrapper must
// forward all of it: the host scheduler and the server pick their routing
// (Submit path, per-chip read queues, health and version probes) by
// asserting these interfaces, so a wrapper that hid one would change the
// simulated results it is there to observe.
type fullFTL interface {
	ftl.FTL
	ftl.Submitter
	ftl.ChipProbe
	ftl.HealthProber
	ftl.VersionProber
}

// tracedFTL times every host-facing call into an FTL from outside it.
type tracedFTL struct {
	fullFTL
	tr   *tracer
	src  *spanSource
	name string // span name prefix, "ftl.sub"
	// durs keeps every call's duration in nanoseconds per call kind; busy
	// is their sum. Calls made while paused (set-up, warm-up) are timed as
	// spans but kept out of the statistics.
	durs   [nCalls][]int32
	busy   int64
	paused bool
}

func newTracedFTL(f ftl.FTL, tr *tracer, name string) (*tracedFTL, error) {
	full, ok := f.(fullFTL)
	if !ok {
		return nil, fmt.Errorf("%s lacks Submit/ChipOf/ReadOnly/VersionOf; tracing it would change routing", f.Name())
	}
	return &tracedFTL{fullFTL: full, tr: tr, src: tr.source(name), name: name, paused: true}, nil
}

// resume and pause bracket the timed window; both accept the nil wrapper
// of an untraced repetition.
func (t *tracedFTL) resume() {
	if t != nil {
		t.paused = false
	}
}

func (t *tracedFTL) pause() {
	if t != nil {
		t.paused = true
	}
}

func (t *tracedFTL) record(kind int, start int64, req int64) {
	end := t.src.now()
	if !t.paused {
		d := end - start
		t.busy += d
		if d > 1<<31-1 {
			d = 1<<31 - 1
		}
		t.durs[kind] = append(t.durs[kind], int32(d))
	}
	t.src.call(t.name+"."+callNames[kind], start, end, req)
}

func (t *tracedFTL) Write(lsn int64, sectors int, sync bool) error {
	start := t.src.now()
	err := t.fullFTL.Write(lsn, sectors, sync)
	t.record(callWrite, start, -1)
	return err
}

func (t *tracedFTL) Read(lsn int64, sectors int) error {
	start := t.src.now()
	err := t.fullFTL.Read(lsn, sectors)
	t.record(callRead, start, -1)
	return err
}

func (t *tracedFTL) Trim(lsn int64, sectors int) error {
	start := t.src.now()
	err := t.fullFTL.Trim(lsn, sectors)
	t.record(callTrim, start, -1)
	return err
}

func (t *tracedFTL) Flush() error {
	start := t.src.now()
	err := t.fullFTL.Flush()
	t.record(callFlush, start, -1)
	return err
}

func (t *tracedFTL) Tick() error {
	start := t.src.now()
	err := t.fullFTL.Tick()
	t.record(callTick, start, -1)
	return err
}

func (t *tracedFTL) Submit(r workload.Request, done ftl.CompletionFunc) {
	kind := callWrite
	switch r.Op {
	case workload.OpRead:
		kind = callRead
	case workload.OpTrim:
		kind = callTrim
	case workload.OpFlush:
		kind = callFlush
	}
	req := t.tr.claim(r)
	start := t.src.now()
	t.fullFTL.Submit(r, done)
	t.record(kind, start, req)
}

// callStats summarises the calls of the timed window.
type callStats struct {
	busyNS     int64
	meanNS     [nCalls]float64
	p99NS      int64
	maxNS      int64
	stallShare float64 // share of busy time in calls longer than 10x the median call
}

// callStatsOf merges the timed-window calls of one or more wrappers (the
// shards of a served fleet).
func callStatsOf(tfs ...*tracedFTL) callStats {
	var cs callStats
	var all []int64
	for k := 0; k < nCalls; k++ {
		var sum int64
		n := 0
		for _, t := range tfs {
			for _, d := range t.durs[k] {
				sum += int64(d)
				all = append(all, int64(d))
			}
			n += len(t.durs[k])
		}
		if n > 0 {
			cs.meanNS[k] = float64(sum) / float64(n)
		}
	}
	for _, t := range tfs {
		cs.busyNS += t.busy
	}
	if len(all) == 0 {
		return cs
	}
	slices.Sort(all)
	cs.p99NS = percentile(all, 0.99)
	cs.maxNS = all[len(all)-1]
	limit := 10 * percentile(all, 0.50)
	var slow int64
	for i := len(all) - 1; i >= 0 && all[i] > limit; i-- {
		slow += all[i]
	}
	cs.stallShare = ratio(float64(slow), float64(cs.busyNS))
	return cs
}
