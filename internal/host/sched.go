package host

import (
	"fmt"
	"math/bits"
	"unsafe"

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
	if c.BackgroundDeferLimit < 0 {
		return c, fmt.Errorf("host: negative background deferral limit %d", c.BackgroundDeferLimit)
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
// A Scheduler runs one workload (RunClosedLoop, RunOpenLoop or
// RunExternal) and is then spent; build a new one per run. It is not safe
// for concurrent use — like the rest of the simulator it is
// single-threaded so that runs are exactly reproducible.
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
	// ready has one bit per command queue, set while the queue is
	// non-empty, its chip idle (the unrouted queue counts as idle) and it
	// is not parked: exactly the queues whose head the arbiter may
	// consider and the barrier is not known to refuse. heads is the
	// scratch those heads are gathered into; it is cleared after every
	// Pick, so it never keeps a retired command reachable.
	ready []uint64
	heads []*Command
	bg    *Command // at most one pending background command
	hz    hazards  // the undispatched host commands, indexed for the barrier

	outstanding  list // submitted, incomplete host commands, in Seq order
	pendingHost  int  // undispatched host commands
	pendingReads int  // undispatched host reads
	inflight     int  // dispatched, incomplete host commands

	hostDispatched int64
	wrRR           int
	busy0          sim.Duration
	drain0         sim.Time

	rep        *Report
	ran        bool
	onDispatch func(*Command)
	// onRetire and onObserve are the package tests' seams: onRetire sees
	// every host command just after its retirement was accounted, and
	// onObserve runs after every sample of the report's summaries.
	onRetire  func(*Command)
	onObserve func()

	// cmdFree recycles retired Command records; see freeCmd for the rule.
	// When it is empty, records come from cmdSlab, whose first slabNext are
	// handed out.
	cmdFree  []*Command
	cmdSlab  []Command
	slabNext int
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
// an earlier overlapping write); it must not mutate the command. While a
// hook is installed no command record is recycled, so the hook may keep
// the commands it saw and read their completion times later.
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
	s.ready = make([]uint64, (s.chips+64)/64)
	s.heads = make([]*Command, 0, s.chips+1)
	s.now = s.clock.Now()
	s.issueCB = func(e error) { s.issueErr = e }
	s.barrier = s.dispatchable
	return s, nil
}

// cmdsPerSlab is how many Command records one slab refill allocates: as
// many as fit 8 KiB, one of the allocator's size classes, so no slab is
// rounded up to the next class with padding behind its last record.
const cmdsPerSlab = 8192 / unsafe.Sizeof(Command{})

// newCmd takes a zeroed Command from the freelist, or else the next record
// of the slab, refilling it when it is used up. Slab records are never
// returned to the slab: a record a dispatch hook retains keeps its whole
// slab alive, which is what makes one allocation per cmdsPerSlab commands
// safe when a hook keeps records from being recycled.
func (s *Scheduler) newCmd() *Command {
	if n := len(s.cmdFree); n > 0 {
		c := s.cmdFree[n-1]
		s.cmdFree[n-1] = nil
		s.cmdFree = s.cmdFree[:n-1]
		return c
	}
	if s.slabNext == len(s.cmdSlab) {
		s.cmdSlab, s.slabNext = make([]Command, cmdsPerSlab), 0
	}
	c := &s.cmdSlab[s.slabNext]
	s.slabNext++
	return c
}

// freeCmd returns a command to the freelist. The loop recycles every
// command once its completion has been counted and delivered, since a
// Completion promises not to retain the pointer — unless a dispatch hook
// is installed, which may retain what it observed. The record is cleared
// here, not on reuse, so a parked record keeps nothing alive (the
// submitter's Completion, the request's error).
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
	next := func() error {
		if submitted >= n {
			return nil
		}
		submitted++
		_, err := s.submit(gen.Next())
		return err
	}
	for range depth {
		if err := next(); err != nil {
			return s.finish(err)
		}
	}
	return s.finish(s.loop(nil, func(c *Command) error {
		if err := c.failure(); err != nil || c.Class == ClassBackground {
			return err
		}
		return next()
	}, nil))
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
	return s.finish(s.loop(nil, (*Command).failure, func(idx int64, at sim.Time) error {
		s.clock.AdvanceTo(at)
		if _, err := s.submit(gen.Next()); err != nil {
			return err
		}
		if idx+1 < int64(n) {
			s.pushArrival(start.Add(sim.Duration(idx+1)*interarrival), idx+1)
		}
		return nil
	}))
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
	s.busy0 = s.dev.TotalChipBusy()
	s.drain0 = s.dev.DrainTime()
	return nil
}

func (s *Scheduler) finish(err error) (*Report, error) {
	s.observe()
	return s.rep, err
}

// loop is the one event loop of every driver; the drivers differ only in
// where host requests come from. Each turn dispatches whatever can go.
// Then wait, RunExternal's and nil for the generator loops, blocks until
// the earliest event falls due or submissions arrive, and reports whether
// it admitted any; it is the only step of any driver that may block. Then
// the earliest event is taken: a completion is counted and passed to done,
// after which its record is recycled, and an arrival (open loop) is passed
// to arrive. A non-nil error from done or arrive ends the run.
func (s *Scheduler) loop(wait func() bool, done func(*Command) error, arrive func(idx int64, at sim.Time) error) error {
	for {
		s.dispatchRound()
		if wait != nil && wait() {
			continue
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
		var err error
		if c := ev.cmd; c != nil {
			s.complete(c)
			if err = done(c); err == nil && s.onDispatch == nil {
				s.freeCmd(c)
			}
		} else {
			err = arrive(ev.arrive, ev.at)
		}
		if err != nil {
			return err
		}
		s.observe()
	}
}

func (s *Scheduler) pushArrival(at sim.Time, idx int64) {
	s.events.push(event{at: at, ord: s.evOrd, arrive: idx})
	s.evOrd++
}

// submit accepts one host request: it is sequenced, classified, tagged
// with its submission-queue lane, and routed to a per-chip command queue.
func (s *Scheduler) submit(r workload.Request) (*Command, error) {
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
	s.setReady(c.Chip)
	s.hz.add(c)
	s.outstanding.pushBack(&c.out, c)
	s.pendingHost++
	s.rep.Submitted++
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

// setReady recomputes queue q's bit in the ready mask.
func (s *Scheduler) setReady(q int) {
	bit := uint64(1) << (q & 63)
	if s.cq[q].n > 0 && (q == s.chips || !s.chipBusy[q]) && !s.cq[q].parked {
		s.ready[q>>6] |= bit
	} else {
		s.ready[q>>6] &^= bit
	}
}

// readyHeads gathers the heads of the ready queues, in queue order.
func (s *Scheduler) readyHeads() []*Command {
	h := s.heads[:0]
	for w, word := range s.ready {
		for ; word != 0; word &= word - 1 {
			h = append(h, s.cq[w<<6|bits.TrailingZeros64(word)].front())
		}
	}
	return h
}

// dispatchable applies the ordering barrier to a ready queue head (its
// chip is idle by construction): no earlier-submitted undispatched
// command may conflict with it. Two commands conflict when their sector
// ranges overlap and at least one of them mutates (write or trim); the
// hazard index answers that. A flush is a full barrier both ways: it must
// observe every earlier write, and later writes must not be reordered
// ahead of the durability point it acknowledges. So it conflicts with
// every earlier command and waits until it is the oldest undispatched
// one of all. A refused head's queue parks on the command that blocks it.
func (s *Scheduler) dispatchable(c *Command) bool {
	b := s.hz.blocker(c)
	if b == nil {
		return true
	}
	s.park(c.Chip, b)
	return false
}

// park takes queue q, whose head b blocks, out of the ready mask until b
// dispatches. This loses no wakeup: only an earlier-submitted command can
// block a head, so b stays undispatched and the head stays blocked until
// b leaves the index, and the head cannot change meanwhile, because a
// parked queue is never picked. So every Pick sees exactly the
// dispatchable heads it would see if each ready head were tested anew.
// An arbiter may test a head twice; the second park is a no-op.
func (s *Scheduler) park(q int, b *Command) {
	cq := &s.cq[q]
	if cq.parked {
		return
	}
	cq.parked = true
	cq.nextWaiter, b.waiters = b.waiters, int32(q+1)
	s.ready[q>>6] &^= 1 << (q & 63)
}

// wake returns the queues parked on c, which has just left the index for
// dispatch, to the ready mask; the next Pick tests their heads again, and
// one still blocked parks on its next blocker.
func (s *Scheduler) wake(c *Command) {
	for w := c.waiters; w != 0; {
		q := int(w - 1)
		cq := &s.cq[q]
		w, cq.nextWaiter, cq.parked = cq.nextWaiter, 0, false
		s.setReady(q)
	}
	c.waiters = 0
}

// dispatchRound issues every currently dispatchable command: host
// commands first via the arbiter, then at most the pending background
// command if no host work can go and no host read is waiting (or the
// background deferral budget ran out).
func (s *Scheduler) dispatchRound() {
	for {
		heads := s.readyHeads()
		var c *Command
		if i := s.cfg.Arbiter.Pick(heads, s.barrier); i >= 0 {
			c = s.cq[heads[i].Chip].pop()
		}
		clear(heads)
		if c != nil {
			s.hz.remove(c)
			s.wake(c)
			s.dispatchHost(c)
			s.setReady(c.Chip)
			continue
		}
		if s.bg != nil {
			if s.pendingReads > 0 && s.bg.deferred < s.cfg.BackgroundDeferLimit {
				s.bg.deferred++
				s.rep.BackgroundDeferred++
				return
			}
			c, s.bg = s.bg, nil
			s.dispatch(c)
			continue
		}
		return
	}
}

// dispatchHost issues one host command and enqueues the maintenance tick
// its cadence position owes, mirroring the classic replay's tick points.
func (s *Scheduler) dispatchHost(c *Command) {
	s.pendingHost--
	if c.Class == ClassRead {
		s.pendingReads--
		if s.olderWritePending(c.Seq) {
			s.rep.ReadsPromoted++
		}
	}
	s.inflight++
	s.dispatch(c)
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
}

// olderWritePending reports whether an undispatched write or trim with a
// smaller sequence number exists — i.e. dispatching seq now overtakes it.
func (s *Scheduler) olderWritePending(seq int64) bool { return s.hz.writes.before(seq) }

// dispatch issues a command to the FTL inside a device transaction and
// takes its completion time from the transaction's journal: the command
// completes when the last resource it occupied drains. A command that
// touched no resource (a buffer-absorbed write, a buffered or unmapped
// read) completes instantly. The FTL's error, if any, stays with the
// command until it completes.
func (s *Scheduler) dispatch(c *Command) {
	c.Dispatch = s.now
	c.DispatchIdx = s.hostDispatched + s.rep.Background // total issue order
	if s.onDispatch != nil {
		s.onDispatch(c)
	}
	if c.Chip < s.chips {
		s.chipBusy[c.Chip] = true
	}
	bytes0 := s.dev.BytesWritten()
	s.dev.BeginTxn()
	c.Err = s.issue(c)
	fanout, end := s.dev.EndTxn()
	c.FlashBytes = s.dev.BytesWritten() - bytes0
	c.Fanout = fanout
	if end < c.Arrival {
		// The work packed before the arrival axis (an idle resource) or
		// there was none: the command completes upon arrival.
		end = c.Arrival
	}
	c.Complete = end
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
		return
	}
	if c.Chip < s.chips {
		s.chipBusy[c.Chip] = false
		s.setReady(c.Chip)
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

// observe samples the queue depth and chip utilization into the report's
// summaries at the current event time.
func (s *Scheduler) observe() {
	s.rep.QueueDepth.Record(float64(s.pendingHost + s.inflight))
	if horizon := s.dev.DrainTime().Sub(s.drain0); horizon > 0 {
		busy := s.dev.TotalChipBusy() - s.busy0
		s.rep.ChipUtil.Record(float64(busy) / (float64(horizon) * float64(s.chips)))
	}
	if s.onObserve != nil {
		s.onObserve()
	}
}
