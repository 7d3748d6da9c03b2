package host

import (
	"fmt"

	"espftl/internal/ftl"
	"espftl/internal/nand"
	"espftl/internal/sim"
	"espftl/internal/workload"
)

// Config parameterizes a Scheduler.
type Config struct {
	// Queues is the number of submission-queue lanes (default 1).
	Queues int
	// Arbiter is the dispatch policy over the per-chip command queues
	// (default FIFO).
	Arbiter Arbiter
	// TickEvery admits one background maintenance command (FTL.Tick)
	// after every TickEvery host dispatches; 0 disables maintenance.
	// It mirrors the classic replay's tick cadence, so at queue depth 1
	// the FTL sees the identical call sequence.
	TickEvery int
	// BackgroundDeferLimit bounds how many events a background command
	// may yield to pending host reads before it is dispatched anyway
	// (default 512). Scrubbing must eventually run even under read load.
	BackgroundDeferLimit int
}

func (c Config) withDefaults() (Config, error) {
	if c.Queues == 0 {
		c.Queues = 1
	}
	if c.Queues < 0 {
		return c, fmt.Errorf("host: %d submission queues", c.Queues)
	}
	if c.Arbiter == nil {
		c.Arbiter = FIFO{}
	}
	if c.TickEvery < 0 {
		return c, fmt.Errorf("host: negative tick cadence %d", c.TickEvery)
	}
	if c.BackgroundDeferLimit == 0 {
		c.BackgroundDeferLimit = 512
	}
	return c, nil
}

// event is one entry of the central event loop: a command completion or
// an open-loop arrival.
type event struct {
	at     sim.Time
	ord    int64    // deterministic tie-break: push order
	cmd    *Command // nil for arrival events
	arrive int64    // arrival index when cmd is nil
}

// eventHeap is a min-heap on (at, ord). It deliberately does not
// implement container/heap: heap.Push and heap.Pop box every event
// through interface{}, which is an allocation per scheduled completion —
// the concrete push/pop below keep the event loop allocation-free.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].ord < h[j].ord
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // the vacated slot must not keep its command reachable
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Scheduler is the event-driven host interface over one device and FTL.
// A Scheduler runs one workload (RunClosedLoop or RunOpenLoop) and is
// then spent; build a new one per run. It is not safe for concurrent
// use — like the rest of the simulator it is single-threaded so that
// runs are exactly reproducible.
type Scheduler struct {
	cfg   Config
	dev   *nand.Device
	clock *sim.Clock
	f     ftl.FTL

	now    sim.Time
	seq    int64
	evOrd  int64
	events eventHeap

	chips    int
	cq       []cmdQueue // per-chip FIFO queues; index chips = unrouted
	chipBusy []bool
	heads    []*Command
	bg       *Command // at most one pending background command
	hz       hazards  // the undispatched host commands, indexed for the barrier

	outstanding  list // submitted, incomplete host commands, in Seq order
	pendingHost  int  // undispatched host commands
	pendingReads int  // undispatched host reads
	inflight     int  // dispatched, incomplete host commands

	hostDispatched int64
	wrRR           int
	scratchA       []sim.Time
	scratchB       []sim.Time
	busy0          sim.Duration
	drain0         sim.Time

	rep        *Report
	ran        bool
	external   bool // RunExternal: per-command error delivery, byte attribution
	onDispatch func(*Command)
	// onRetire is the package tests' seam into complete: it observes every
	// host command just after its retirement was accounted.
	onRetire func(*Command)

	// cmdFree recycles Command records of external submissions and
	// background ticks; see freeCmd for the retention rules.
	cmdFree []*Command
	// issueErr and issueCB are the reusable Submit callback, and barrier
	// the dispatchable method value handed to the arbiter: allocating a
	// fresh closure per dispatch would put one heap object on every
	// command's hot path.
	issueErr error
	issueCB  ftl.CompletionFunc
	barrier  func(*Command) bool
}

// SetDispatchHook installs a callback observing every command at the
// moment it is issued to the FTL, in dispatch order. Tests use it to
// assert ordering properties (e.g. that the barrier kept a read behind
// an earlier overlapping write); it must not mutate the command.
func (s *Scheduler) SetDispatchHook(fn func(*Command)) { s.onDispatch = fn }

// New builds a scheduler over the device's clock. Host commands issue
// through the FTL's non-blocking Submit path, and reads are routed to
// per-chip queues by its ChipOf probe.
func New(dev *nand.Device, f ftl.FTL, cfg Config) (*Scheduler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:   cfg,
		dev:   dev,
		clock: dev.Clock(),
		f:     f,
		chips: dev.Geometry().Chips(),
	}
	s.cq = make([]cmdQueue, s.chips+1)
	s.hz.sectors = make(map[int64]*sector)
	s.chipBusy = make([]bool, s.chips)
	s.heads = make([]*Command, s.chips+1)
	s.now = s.clock.Now()
	s.issueCB = func(e error) { s.issueErr = e }
	s.barrier = s.dispatchable
	return s, nil
}

// newCmd takes a zeroed Command from the freelist, or allocates one.
func (s *Scheduler) newCmd() *Command {
	if n := len(s.cmdFree); n > 0 {
		c := s.cmdFree[n-1]
		s.cmdFree[n-1] = nil
		s.cmdFree = s.cmdFree[:n-1]
		return c
	}
	return &Command{}
}

// freeCmd returns a command to the freelist. Only commands nothing can
// still hold come back here: those delivered through a Completion (which
// promises not to retain the pointer) and internally generated background
// ticks. Commands run by the closed/open-loop drivers stay live because a
// dispatch hook may retain them. The record is cleared here, not on reuse,
// so a parked record keeps nothing alive (the submitter's Completion, the
// request's error).
func (s *Scheduler) freeCmd(c *Command) {
	*c = Command{}
	s.cmdFree = append(s.cmdFree, c)
}

// RunClosedLoop drives n generated requests at a fixed queue depth: depth
// requests are outstanding at all times (until the stream drains), and
// every completion immediately submits the next request. At depth 1 with
// the FIFO arbiter this is exactly the classic serial replay.
func (s *Scheduler) RunClosedLoop(gen workload.Generator, n, depth int) (*Report, error) {
	if depth < 1 {
		return nil, fmt.Errorf("host: queue depth %d (want >= 1)", depth)
	}
	if err := s.start(depth); err != nil {
		return nil, err
	}
	submitted := 0
	for submitted < depth && submitted < n {
		if err := s.submit(gen.Next()); err != nil {
			return s.rep, err
		}
		submitted++
	}
	err := s.loop(func() error {
		if submitted >= n {
			return nil
		}
		submitted++
		return s.submit(gen.Next())
	}, nil)
	return s.finish(err)
}

// RunOpenLoop drives n generated requests at a fixed arrival rate
// (requests per second of virtual time), the offered-load operating
// point: arrivals do not wait for completions, so an overloaded device
// shows unbounded queueing delay instead of silently throttling the
// workload. The shared clock advances with the arrival process.
func (s *Scheduler) RunOpenLoop(gen workload.Generator, n int, rate float64) (*Report, error) {
	interarrival, err := arrivalInterval(rate)
	if err != nil {
		return nil, err
	}
	if err := s.start(0); err != nil {
		return nil, err
	}
	start := s.now
	if n > 0 {
		s.pushArrival(start, 0)
	}
	err = s.loop(nil, func(idx int64, at sim.Time) error {
		s.clock.AdvanceTo(at)
		if err := s.submit(gen.Next()); err != nil {
			return err
		}
		if idx+1 < int64(n) {
			s.pushArrival(start.Add(sim.Duration(idx+1)*interarrival), idx+1)
		}
		return nil
	})
	return s.finish(err)
}

// arrivalInterval validates an open-loop rate and converts it to the
// interarrival gap. Rates must be positive and finite.
func arrivalInterval(rate float64) (sim.Duration, error) {
	if !(rate > 0) || rate > 1e12 {
		return 0, fmt.Errorf("host: open-loop arrival rate %v (want 0 < rate <= 1e12 req/s)", rate)
	}
	d := sim.Duration(float64(sim.Second) / rate)
	if d <= 0 {
		d = 1
	}
	return d, nil
}

func (s *Scheduler) start(depth int) error {
	if s.ran {
		return fmt.Errorf("host: scheduler already ran; build a new one per run")
	}
	s.ran = true
	s.rep = newReport(s.cfg.Arbiter.Name(), depth, s.cfg.Queues)
	s.scratchA = s.dev.ResourceFreeTimes(nil)
	s.scratchB = s.dev.ResourceFreeTimes(nil)
	s.busy0 = s.dev.TotalChipBusy()
	s.drain0 = s.dev.DrainTime()
	return nil
}

func (s *Scheduler) finish(err error) (*Report, error) {
	s.sampleSeries()
	return s.rep, err
}

// loop is the central event loop. onHostComplete (closed loop) runs after
// every host completion; onArrive (open loop) runs for each arrival event.
func (s *Scheduler) loop(onHostComplete func() error, onArrive func(idx int64, at sim.Time) error) error {
	for {
		if err := s.dispatchRound(); err != nil {
			return err
		}
		if len(s.events) == 0 {
			if s.pendingHost > 0 || s.bg != nil {
				return fmt.Errorf("host: scheduler stalled with %d pending commands and no events", s.pendingHost)
			}
			return nil
		}
		ev := s.events.pop()
		if ev.at > s.now {
			s.now = ev.at
		}
		if ev.cmd != nil {
			host := ev.cmd.Class != ClassBackground
			s.complete(ev.cmd)
			if host && onHostComplete != nil {
				if err := onHostComplete(); err != nil {
					return err
				}
			}
		} else if onArrive != nil {
			if err := onArrive(ev.arrive, ev.at); err != nil {
				return err
			}
		}
		s.sampleSeries()
	}
}

func (s *Scheduler) pushArrival(at sim.Time, idx int64) {
	s.events.push(event{at: at, ord: s.evOrd, arrive: idx})
	s.evOrd++
}

// submit accepts one host request: it is sequenced, classified, tagged
// with its submission-queue lane, and routed to a per-chip command queue.
func (s *Scheduler) submit(r workload.Request) error {
	_, err := s.submitCmd(r)
	return err
}

// submitCmd is submit exposed for the external path, which needs the
// command back to attach its completion callback.
func (s *Scheduler) submitCmd(r workload.Request) (*Command, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.Op == workload.OpAdvance {
		return nil, fmt.Errorf("host: OpAdvance cannot be scheduled; advance the clock between runs")
	}
	c := s.newCmd()
	c.Seq = s.seq
	c.Queue = int(s.seq % int64(s.cfg.Queues))
	c.Req = r
	c.Arrival = s.now
	c.DispatchIdx = -1
	s.seq++
	if r.Op == workload.OpRead {
		c.Class = ClassRead
		s.pendingReads++
	} else {
		c.Class = ClassWrite
	}
	c.Chip = s.route(c)
	s.cq[c.Chip].push(c)
	s.hz.add(c)
	c.out.seq = c.Seq
	s.outstanding.pushBack(&c.out)
	s.pendingHost++
	s.rep.Submitted++
	s.rep.PerQueue[c.Queue]++
	return c, nil
}

// route picks the command queue: reads go to the chip currently holding
// their first sector (per the FTL's mapping probe), writes round-robin
// across chips as a stand-in for the FTLs' striped allocation, and
// everything unresolvable goes to the unrouted queue. Flushes are
// unrouted: they fan out across every chip holding buffered data, so no
// single chip queue owns them — the ordering barrier sequences them.
func (s *Scheduler) route(c *Command) int {
	if c.Req.Op == workload.OpFlush {
		return s.chips
	}
	if c.Class == ClassRead {
		if ch := s.f.ChipOf(c.Req.LSN); ch >= 0 && ch < s.chips {
			return ch
		}
		return s.chips
	}
	ch := s.wrRR % s.chips
	s.wrRR++
	return ch
}

// dispatchable applies the scheduler's structural constraints to a
// command-queue head: its chip must be idle and no earlier-submitted
// undispatched command may conflict with it (the ordering barrier). Two
// commands conflict when their sector ranges overlap and at least one of
// them mutates (write or trim); the hazard index answers that. A flush is
// a full barrier both ways: it must observe every earlier write, and later
// writes must not be reordered ahead of the durability point it
// acknowledges. So it conflicts with every earlier command and waits for
// the oldest undispatched one of all — the chip queues are Seq-ordered,
// so that command is one of their heads.
func (s *Scheduler) dispatchable(c *Command) bool {
	if c.Chip < s.chips && s.chipBusy[c.Chip] {
		return false
	}
	if c.Req.Op != workload.OpFlush {
		return !s.hz.blocked(c)
	}
	for i := range s.cq {
		if h := s.cq[i].front(); h != nil && h.Seq < c.Seq {
			return false
		}
	}
	return true
}

// dispatchRound issues every currently dispatchable command: host
// commands first via the arbiter, then at most the pending background
// command if no host work can go and no host read is waiting (or the
// background deferral budget ran out).
func (s *Scheduler) dispatchRound() error {
	for {
		for i := range s.cq {
			s.heads[i] = s.cq[i].front()
		}
		if i := s.cfg.Arbiter.Pick(s.heads, s.barrier); i >= 0 {
			c := s.cq[i].pop()
			s.hz.remove(c)
			if err := s.dispatchHost(c); err != nil {
				return err
			}
			continue
		}
		if s.bg != nil {
			if s.pendingReads > 0 && s.bg.deferred < s.cfg.BackgroundDeferLimit {
				s.bg.deferred++
				s.rep.BackgroundDeferred++
				return nil
			}
			c := s.bg
			s.bg = nil
			if err := s.dispatch(c); err != nil {
				return err
			}
			continue
		}
		return nil
	}
}

// dispatchHost issues one host command and enqueues the maintenance tick
// its cadence position owes, mirroring the classic replay's tick points.
func (s *Scheduler) dispatchHost(c *Command) error {
	s.pendingHost--
	if c.Class == ClassRead {
		s.pendingReads--
		if s.olderWritePending(c.Seq) {
			s.rep.ReadsPromoted++
		}
	}
	s.inflight++
	if err := s.dispatch(c); err != nil {
		return err
	}
	i := s.hostDispatched
	s.hostDispatched++
	s.rep.Dispatched++
	if s.cfg.TickEvery > 0 && i%int64(s.cfg.TickEvery) == 0 && s.bg == nil {
		bg := s.newCmd()
		bg.Seq = s.seq
		bg.Class = ClassBackground
		bg.Chip = s.chips
		bg.Arrival = s.now
		bg.DispatchIdx = -1
		s.bg = bg
		s.seq++
	}
	return nil
}

// olderWritePending reports whether an undispatched write or trim with a
// smaller sequence number exists — i.e. dispatching seq now overtakes it.
func (s *Scheduler) olderWritePending(seq int64) bool { return s.hz.writes.before(seq) }

// dispatch issues a command to the FTL and derives its completion time
// from the device's per-resource FreeAt deltas: the command completes
// when the last resource its transaction occupied drains. A command that
// touched no resource (a buffer-absorbed write, a buffered or unmapped
// read) completes instantly.
func (s *Scheduler) dispatch(c *Command) error {
	c.Dispatch = s.now
	c.DispatchIdx = s.hostDispatched + s.rep.Background // total issue order
	if s.onDispatch != nil {
		s.onDispatch(c)
	}
	if c.Chip < s.chips {
		s.chipBusy[c.Chip] = true
	}
	s.scratchA = s.dev.ResourceFreeTimes(s.scratchA)
	var bytes0 int64
	if s.external {
		bytes0 = s.dev.Counters().BytesWritten
	}
	err := s.issue(c)
	if s.external {
		c.FlashBytes = s.dev.Counters().BytesWritten - bytes0
	}
	s.scratchB = s.dev.ResourceFreeTimes(s.scratchB)
	end := sim.Time(0)
	for i := range s.scratchB {
		if s.scratchB[i] != s.scratchA[i] {
			c.Fanout++
			if s.scratchB[i] > end {
				end = s.scratchB[i]
			}
		}
	}
	if end < c.Arrival {
		// The work packed before the arrival axis (an idle resource) or
		// there was none: the command completes upon arrival.
		end = c.Arrival
	}
	c.Complete = end
	if err != nil {
		if !s.external {
			return fmt.Errorf("host: %s command seq %d (%v): %w", c.Class, c.Seq, c.Req, err)
		}
		// External mode: a failed command still completes and carries its
		// error back to the submitter — one tenant's bad request (or a
		// dead device) must not tear down the whole service loop.
		c.Err = err
	}
	s.events.push(event{at: end, ord: s.evOrd, cmd: c})
	s.evOrd++
	if c.Class != ClassBackground {
		wait := c.Dispatch.Sub(c.Arrival)
		if wait < 0 {
			wait = 0
		}
		if c.Class == ClassRead {
			s.rep.ReadWait.Record(wait)
		} else {
			s.rep.WriteWait.Record(wait)
		}
		s.rep.Fanout.Record(c.Fanout)
	} else {
		s.rep.Background++
	}
	return nil
}

// issue performs the FTL call: the non-blocking Submit path for host
// commands, Tick for background ones.
func (s *Scheduler) issue(c *Command) error {
	if c.Class == ClassBackground {
		return s.f.Tick()
	}
	s.issueErr = nil
	s.f.Submit(c.Req, s.issueCB)
	return s.issueErr
}

// complete retires a command at the current event time.
func (s *Scheduler) complete(c *Command) {
	if c.Class == ClassBackground {
		s.rep.BackLat.Record(c.latency())
		if s.onDispatch == nil {
			// Background ticks are purely internal; nothing can retain one
			// unless a dispatch hook observed it (tests may keep pointers).
			s.freeCmd(c)
		}
		return
	}
	if c.Chip < s.chips {
		s.chipBusy[c.Chip] = false
	}
	s.inflight--
	s.outstanding.remove(&c.out)
	if s.outstanding.before(c.Seq) {
		s.rep.OutOfOrder++
	}
	s.rep.Completed++
	if c.Err != nil {
		s.rep.Errors++
	}
	lat := c.latency()
	s.rep.HostLat.Record(lat)
	if c.Class == ClassRead {
		s.rep.ReadLat.Record(lat)
	} else {
		s.rep.WriteLat.Record(lat)
	}
	if s.onRetire != nil {
		s.onRetire(c)
	}
}

// sampleSeries records the queue-depth and chip-utilization time series
// at the current event time.
func (s *Scheduler) sampleSeries() {
	s.rep.QueueDepth.Record(int64(s.now), float64(s.pendingHost+s.inflight))
	horizon := s.dev.DrainTime().Sub(s.drain0)
	if horizon > 0 {
		busy := s.dev.TotalChipBusy() - s.busy0
		s.rep.ChipUtil.Record(int64(s.now), float64(busy)/(float64(horizon)*float64(s.chips)))
	}
}
