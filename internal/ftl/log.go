package ftl

import (
	"errors"
	"fmt"

	"espftl/internal/gc"
	"espftl/internal/nand"
)

// MaxProgramReplays bounds how many fresh blocks a single write may burn
// through on consecutive injected program failures before the error is
// surfaced instead of retried.
const MaxProgramReplays = 8

// Stream names the append stripe a page program lands on.
type Stream uint8

// The log's streams. Host and cold programs pass the capacity gate; GC
// relocations never do (that would recurse — the reserve guarantees their
// blocks).
const (
	StreamHost Stream = iota
	StreamGC
	// StreamCold is the narrow third stripe predicted-long-lived host data
	// lands on, so it packs into blocks hot rewrites never churn. It exists
	// only when LogConfig.Cold is set.
	StreamCold
)

// LogOwner is the mapping layer above a Log: the half of a log-structured
// FTL that knows what the programmed sectors mean.
type LogOwner interface {
	// Refill runs after the capacity gate has admitted a host-side block
	// refill and before the block is taken. The full-page store pays its
	// incremental write tax here (so allocation proceeds through the
	// reserve cushion while bounded steps repay the debt); fgmFTL pays
	// once per host request instead and does nothing.
	Refill() error
	// Begin and Work are the owner's half of gc.Target: reset the
	// per-victim checkpoint, then relocate the victim's live data one page
	// per call by appending to StreamGC. View, Fallback and Release are
	// the log's.
	Begin(victim nand.BlockID)
	Work(victim nand.BlockID) (copied int, done bool, err error)
}

// LogConfig parameterizes a Log; every field is fixed for the log's life.
type LogConfig struct {
	// Reserve is the free-pool floor below which host refills collect.
	Reserve int
	// GC selects the victim policy, step budget and background slack.
	GC gc.Options
	// UnitsPerBlock is the valid-count denominator in the owner's units
	// (pages for page mapping, subpages for fine-grained mapping).
	UnitsPerBlock int
	// Tag is the OOB region tag stamped into every program.
	Tag uint8
	// Cold builds the cold stripe.
	Cold bool
	// Reclaim, when set, is tried before collecting to free a block some
	// other way (subFTL converts empty subpage-region blocks back — the
	// paper's dynamic block-role conversion). It reports whether a block
	// returned to the pool.
	Reclaim func() bool
}

// appendPoint is one open block being filled sequentially, pinned to a
// preferred chip so the stripe covers the device's parallelism.
type appendPoint struct {
	block  nand.BlockID
	cursor int
	set    bool
	chip   int
}

// stripe is a rotating set of append points.
type stripe struct {
	points []appendPoint
	next   int
}

func newStripe(width, chips int) stripe {
	s := stripe{points: make([]appendPoint, width)}
	for i := range s.points {
		s.points[i].chip = i * chips / width
	}
	return s
}

// borrow returns a set append point with page capacity left, if any. When
// the free pool is at its margin, a GC destination refill reuses another
// point's open block instead of allocating: chip parallelism degrades but
// one fresh destination block always covers a whole drain (a victim has at
// most PagesPerBlock live pages), so collection never exhausts the pool.
func (s *stripe) borrow(pagesPerBlock int) *appendPoint {
	for i := range s.points {
		if s.points[i].set && s.points[i].cursor < pagesPerBlock {
			return &s.points[i]
		}
	}
	return nil
}

// Log is the page-append log under the full-page store and fgmFTL: RoleFull
// blocks filled page by page through striped append points, a capacity gate
// in front of host refills, program-failure replay, and the collector that
// reclaims what the owner's remaps invalidate. The owner builds the stamps
// and keeps the mapping; the log decides where each page goes and when
// space is reclaimed.
type Log struct {
	dev   *nand.Device
	man   *Manager
	stats *Stats
	owner LogOwner
	cfg   LogConfig

	// Stripes rotate so consecutive page programs land on different chips
	// and overlap on the timeline (the multi-channel parallelism the
	// paper's platform provides).
	stripes [3]stripe

	col *gc.Collector
	// target and view are built once: their inputs are fixed for the log's
	// life, and rebuilding either per step would put an allocation in every
	// Tick.
	target gc.Target
	view   gc.View

	// stampsFree recycles Append's stamp scratch. A freelist rather than a
	// single buffer because appends nest: a host append can trigger GC
	// whose relocations append pages of their own while the outer call's
	// stamps are still live.
	stampsFree [][]nand.Stamp
}

// NewLog builds a log over man's free pool. stats receives the log's
// counters (GC invocations, program-fail moves, cold segregation).
func NewLog(dev *nand.Device, man *Manager, stats *Stats, cfg LogConfig, owner LogOwner) (*Log, error) {
	pol, err := gc.NewPolicy(cfg.GC)
	if err != nil {
		return nil, err
	}
	chips := dev.Geometry().Chips()
	l := &Log{dev: dev, man: man, stats: stats, owner: owner, cfg: cfg, col: gc.NewCollector(pol, cfg.GC.StepPages)}
	l.stripes[StreamHost] = newStripe(chips, chips)
	// The GC stripe allocates blocks without collecting first, so its width
	// must stay within the reserve that guarantees those allocations succeed.
	l.stripes[StreamGC] = newStripe(min(chips, max(1, cfg.Reserve-4)), chips)
	if cfg.Cold {
		// Cold data trickles, so a narrow stripe suffices: it keeps the
		// open-block overhead at two blocks instead of a chip-wide set.
		l.stripes[StreamCold] = newStripe(min(2, chips), chips)
	}
	l.target = logTarget{l, owner}
	l.view = man.GCView(RoleFull, cfg.UnitsPerBlock, l.col.InFlight)
	return l, nil
}

// Collector exposes the log's collector for stats snapshots and in-flight
// checks.
func (l *Log) Collector() *gc.Collector { return l.col }

// OpenBlocks is how many blocks the log can hold open at once (one per
// append point), the owners' input to the read-only capacity floor.
func (l *Log) OpenBlocks() int {
	n := 0
	for i := range l.stripes {
		n += len(l.stripes[i].points)
	}
	return n
}

// Stamps takes a page-sized stamp buffer off the freelist for the owner to
// fill and hand to Append, which returns it.
func (l *Log) Stamps() []nand.Stamp {
	if n := len(l.stampsFree); n > 0 {
		buf := l.stampsFree[n-1]
		l.stampsFree = l.stampsFree[:n-1]
		return buf
	}
	return make([]nand.Stamp, l.dev.Geometry().SubpagesPerPage)
}

// Append programs stamps (taken with Stamps) to the stream's next page and
// returns where they landed; the owner then remaps. A program failure
// destroys only the fresh copy — the owner's mapping still points at the
// old one — so every failed block is retired (grown bad) and the append
// replays on a fresh one, surfacing the error once MaxProgramReplays
// replays have failed too.
func (l *Log) Append(stream Stream, stamps []nand.Stamp) (nand.PageID, error) {
	if stream == StreamCold {
		l.stats.LifetimeSegregated++
	}
	p, err := l.program(&l.stripes[stream], stream == StreamGC, stamps)
	l.stampsFree = append(l.stampsFree, stamps)
	return p, err
}

func (l *Log) program(st *stripe, forGC bool, stamps []nand.Stamp) (nand.PageID, error) {
	for attempt := 0; ; attempt++ {
		p, err := l.allocPage(st, forGC)
		if err != nil {
			return 0, err
		}
		if _, err := l.dev.ProgramPageTag(p, stamps, l.cfg.Tag); err != nil {
			if !errors.Is(err, nand.ErrProgramFail) {
				return 0, err
			}
			l.retireFailed(l.dev.Geometry().BlockOfPage(p), st)
			if attempt >= MaxProgramReplays {
				return 0, err
			}
			l.stats.ProgramFailMoves++
			continue
		}
		return p, nil
	}
}

// allocPage returns the stripe's next physical page, rotating across its
// append points so consecutive programs hit different chips.
func (l *Log) allocPage(st *stripe, forGC bool) (nand.PageID, error) {
	g := l.dev.Geometry()
	ap := &st.points[st.next]
	if st.next++; st.next == len(st.points) {
		st.next = 0
	}
	if ap.set && ap.cursor >= g.PagesPerBlock {
		l.man.MarkFull(ap.block)
		ap.set = false
	}
	if !ap.set {
		if !forGC {
			if err := l.Admit(); err != nil {
				return 0, err
			}
			if err := l.owner.Refill(); err != nil {
				return 0, err
			}
		} else if l.col.Budgeted() && l.man.FreeCount() <= 4 {
			// The pool is at its recovery margin: reuse an open destination
			// block rather than allocate (see stripe.borrow). A whole-block
			// collector never gets here — its reserve covers a full-stripe
			// rollover.
			if bp := st.borrow(g.PagesPerBlock); bp != nil {
				ap = bp
			}
		}
	}
	if !ap.set {
		b, ok := l.man.AllocOnChip(RoleFull, ap.chip)
		if !ok {
			if l.man.ReadOnly() {
				// Bad blocks took the spare capacity the pool needed.
				return 0, ErrReadOnly
			}
			return 0, fmt.Errorf("ftl: free pool exhausted")
		}
		ap.block, ap.set, ap.cursor = b, true, 0
	}
	p := g.PageOf(ap.block, ap.cursor)
	ap.cursor++
	return p, nil
}

// retireFailed retires the append block a program failure hit and drops it
// from its stripe so the replay allocates a fresh block. The block's state
// moves to full; GC later drains whatever live data it already held and
// parks it in StateBad.
func (l *Log) retireFailed(b nand.BlockID, st *stripe) {
	l.man.Retire(b)
	for i := range st.points {
		if st.points[i].set && st.points[i].block == b {
			st.points[i].set = false
		}
	}
}

// TryAdmit is one attempt of the capacity gate, the pool's one rule for
// giving up a host-class block: the free count is above the reserve. At or
// below it the attempt frees at most one block (the Reclaim hook, else one
// whole-victim drain) and reports whether the pool is above now. The
// whole-block reserve is not slack: it guarantees the full-width GC stripe
// can roll over (all points refilling in lockstep) without recursing into
// GC. A budgeted collector makes the reserve's upper part a cushion —
// allocation proceeds while bounded steps (the write tax and background
// ticks) repay the debt — and drains whole victims only at a hard floor. The
// cushion caps destination refills at one block per drain (allocPage borrows
// open destination blocks past the margin), so the floor needs a
// failure-recovery margin (4), that one refill, and headroom for any other
// allocator that takes collection-class blocks from the pool without passing
// the gate (up to 2 blocks mid-step): 8.
func (l *Log) TryAdmit() (bool, error) {
	floor := l.cfg.Reserve
	if l.col.Budgeted() && floor > 8 {
		floor = 8
	}
	if l.man.FreeCount() > floor {
		return true, nil
	}
	if l.cfg.Reclaim == nil || !l.cfg.Reclaim() {
		if err := l.CollectOnce(); err != nil {
			return false, err
		}
	}
	return l.man.FreeCount() > floor, nil
}

// Admit repeats TryAdmit until the pool can spare one more block. A caller
// that has another way to make progress takes the single attempt instead.
func (l *Log) Admit() error {
	for {
		if ok, err := l.TryAdmit(); ok || err != nil {
			return err
		}
	}
}

// Pay runs one bounded collection step if the collector is budgeted and
// the free pool is at or below the reserve — the incremental write tax.
func (l *Log) Pay() error {
	if !l.col.Budgeted() || l.man.FreeCount() > l.cfg.Reserve {
		return nil
	}
	return l.col.StepIfAny(l.target)
}

// Tick is the background step: with GC slack configured, run one bounded
// collection step whenever the free pool is within the slack of the
// reserve (or a preempted victim is pending). Ticks are background-class
// commands in the host scheduler, so these steps yield to pending host
// reads via the BackgroundDeferLimit machinery.
func (l *Log) Tick() error {
	slack := l.cfg.GC.BackgroundSlack
	if slack <= 0 || (!l.col.Active() && l.man.FreeCount() > l.cfg.Reserve+slack) {
		return nil
	}
	return l.col.StepIfAny(l.target)
}

// CollectOnce drains one whole victim: the foreground (out-of-space)
// contract of freeing exactly one block per call. If a background step
// left a victim checkpointed mid-drain, that victim is finished first.
// The no-victim error deliberately does not wrap gc.ErrNoVictim: it
// surfaces through callers that swallow that sentinel for their own
// collectors.
func (l *Log) CollectOnce() error {
	if err := l.col.Collect(l.target); err != nil {
		if errors.Is(err, gc.ErrNoVictim) {
			return fmt.Errorf("ftl: GC has no victim (%d free)", l.man.FreeCount())
		}
		return err
	}
	return nil
}

// StepOnce runs one bounded collection step (at most the configured
// StepPages relocations), reporting whether a block was freed. It returns
// gc.ErrNoVictim untranslated so opportunistic callers can swallow
// "nothing collectable yet" cheaply.
func (l *Log) StepOnce() (bool, error) { return l.col.Step(l.target) }

// logTarget is the log's gc.Target face: Work is the owner's; selection,
// invocation counting and recycling are the log's. The in-flight victim is
// excluded from the view by construction.
type logTarget struct {
	l *Log
	LogOwner
}

func (t logTarget) View() gc.View { return t.l.view }

// Fallback: a page-append log has no secondary victim source.
func (t logTarget) Fallback() (nand.BlockID, bool) { return 0, false }

func (t logTarget) Begin(b nand.BlockID) {
	t.l.stats.GCInvocations++
	t.LogOwner.Begin(b)
}

func (t logTarget) Release(b nand.BlockID) error { return t.l.man.Recycle(b) }
