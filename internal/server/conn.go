package server

import (
	"bufio"
	"encoding/json"
	"net"
	"sync"
	"time"

	"espftl/internal/ftl"
	"espftl/internal/host"
	"espftl/internal/wire"
	"espftl/internal/workload"
)

// handle runs one client connection: handshake, then a reader loop that
// admits and forwards commands, with a writer goroutine streaming
// replies back. The reply channels are sized so the engines' completion
// callbacks can never block on this connection, however slow or dead it
// is: ioCh has one slot per admitted command (admission caps those at
// PerConnInflight), and auxCh is fed only by the reader itself.
func (s *Server) handle(c net.Conn) {
	defer s.connWG.Done()
	defer c.Close()
	s.track(c, true)
	defer s.track(c, false)

	br := bufio.NewReader(c)
	hello, err := wire.ReadHello(br)
	if err != nil {
		return
	}
	ns := s.lookup(hello.NS)
	if ns == nil {
		wire.WriteWelcome(c, wire.Welcome{Status: wire.StatusErr, Err: "unknown namespace " + hello.NS})
		return
	}
	if s.draining.Load() {
		wire.WriteWelcome(c, wire.Welcome{Status: wire.StatusShutdown, Err: "server draining"})
		return
	}
	err = wire.WriteWelcome(c, wire.Welcome{
		SectorBytes: uint32(s.sectorBytes),
		PageSectors: uint32(s.pageSectors),
		MaxInflight: uint32(s.cfg.PerConnInflight),
		Sectors:     uint64(ns.sectors),
	})
	if err != nil {
		return
	}

	ioCh := make(chan wire.Reply, s.cfg.PerConnInflight)
	auxCh := make(chan wire.Reply, 4)
	writerDone := make(chan struct{})
	go s.connWriter(c, ioCh, auxCh, writerDone)

	connSlots := make(chan struct{}, s.cfg.PerConnInflight)
	var reqWG sync.WaitGroup
	// Steady-state scratch, all per-connection so the read loop allocates
	// nothing per command: a reusable frame decoder, a fragment buffer the
	// router fills, and a free pool of join records. The pool is a buffered
	// channel because joins retire on engine goroutines while the reader
	// takes from it — the channel is the (lock-free in the common case)
	// handoff. At most PerConnInflight joins are ever live, so the pool
	// never overflows and puts never block.
	cr := wire.NewCmdReader(br)
	var fragsBuf []frag
	joinFree := make(chan *join, s.cfg.PerConnInflight)
	for {
		cmd, err := cr.Read()
		if err != nil {
			break // client gone, stream corrupt, or drain interrupt
		}
		if cmd.Op == wire.OpStat {
			st := ns.snapshot()
			st.GC = s.nsGC(ns)
			payload, _ := json.Marshal(st)
			auxCh <- wire.Reply{Tag: cmd.Tag, Status: wire.StatusOK, Payload: payload}
			continue
		}
		if s.draining.Load() {
			auxCh <- wire.Reply{Tag: cmd.Tag, Status: wire.StatusShutdown, Payload: []byte("server draining")}
			continue
		}
		// The fence is absolute: a namespace the watchdog (or an
		// operator) fenced sheds everything but STAT before parsing.
		if ns.health.load() == Fenced {
			ns.health.shed.Add(1)
			auxCh <- wire.Reply{Tag: cmd.Tag, Status: wire.StatusFenced, Payload: []byte("namespace " + ns.name + " fenced")}
			continue
		}
		req, err := cmd.Request()
		if err == nil && req.Op == workload.OpAdvance {
			// Virtual time on a live server flows through the gate, not
			// through clients; ADVANCE is a trace artifact.
			err = errAdvanceRejected
		}
		if err == nil {
			err = ns.bounds(req.LSN, req.Sectors)
		}
		if err == nil {
			err = req.Validate()
		}
		if err != nil {
			auxCh <- wire.Reply{Tag: cmd.Tag, Status: wire.StatusErr, Payload: []byte(err.Error())}
			continue
		}
		// The read-only circuit breaker: once a write has come back
		// ftl.ErrReadOnly, later writes and trims are shed here instead
		// of burning an engine round-trip each to fail identically.
		// Reads and flushes still flow.
		if (req.Op == workload.OpWrite || req.Op == workload.OpTrim) && ns.health.load() >= ReadOnly {
			ns.health.shed.Add(1)
			auxCh <- wire.Reply{Tag: cmd.Tag, Status: wire.StatusReadOnly, Payload: []byte(ftlReadOnlyMsg)}
			continue
		}

		// Route to shard-local fragments: one for a resident namespace,
		// several for a striped request or a cross-shard FLUSH barrier.
		// The fragment slice is connection-owned scratch, consumed before
		// the next iteration reuses it.
		frags := ns.routeInto(req, fragsBuf[:0])
		fragsBuf = frags

		// Admission: the per-connection cap, then one slot per fragment
		// on its shard's budget, in ascending shard order (a total order
		// across readers, so cross-shard admission cannot deadlock).
		// Blocking here stops the socket read loop — TCP backpressure.
		// With AdmitTimeout set, a slot that does not free in time turns
		// into RETRYABLE so the client can back off instead of wedging.
		if !s.admit(connSlots, frags, cmd.Tag, auxCh) {
			continue
		}

		reqWG.Add(1)
		var j *join
		select {
		case j = <-joinFree:
		default:
			j = &join{}
		}
		j.reset(s, ns, ioCh, connSlots, &reqWG, joinFree, cmd.Tag, req.Op, req.Sectors, len(frags))
		// Submit fragments in ascending shard order. Within one shard
		// the submission channel preserves this connection's command
		// order, which is what makes a later FLUSH cover every earlier
		// write on that shard — the cross-shard barrier is simply that
		// the join answers only when the slowest shard has settled.
		// Completions arrive through the join's fragDone records; the
		// records live in a join-owned slice and the scheduler recycles
		// its command records, so sustained traffic allocates neither.
		for i, fr := range frags {
			j.frags[i] = fragDone{j: j, sh: fr.sh, idx: i}
			es := host.ExtSubmission{Req: fr.req, Complete: &j.frags[i]}
			select {
			case fr.sh.sub <- es:
				fr.sh.accepted.Add(1)
			case <-fr.sh.engineDone:
				// The shard's engine died under us (scheduler stall):
				// complete the fragment as refused instead of wedging
				// the reader on a channel nobody drains.
				j.finish(fr.sh, i, 0, 0, errEngineStopped)
			}
		}
	}
	// Reader is done. Every accepted command still completes — wait for
	// the callbacks, then let the writer flush the tail and retire.
	reqWG.Wait()
	close(ioCh)
	close(auxCh)
	<-writerDone
}

// join gathers the fragment completions of one client command into its
// single wire reply: latency is the slowest fragment (virtual time),
// flash traffic sums, and the reply status reflects the first fragment
// (by submission order) that errored. Fragment callbacks run on their
// shards' engine goroutines concurrently, so the join is locked; the
// critical section is a few counter updates, never I/O.
type join struct {
	s         *Server
	ns        *namespace
	ioCh      chan<- wire.Reply
	connSlots <-chan struct{}
	reqWG     *sync.WaitGroup
	// free is the owning connection's join pool; the last fragment puts
	// the record back after the reply is enqueued.
	free chan *join
	tag  uint64
	op   workload.Op
	// frags holds this command's completion records, one per fragment;
	// the slice is reused across the join's lives.
	frags   []fragDone
	sectors int

	mu        sync.Mutex
	remaining int
	lat       time.Duration
	flash     int64
	err       error
	errIdx    int
}

// reset re-initializes a (possibly pooled) join for its next command and
// sizes the fragment-completion slice.
func (j *join) reset(s *Server, ns *namespace, ioCh chan<- wire.Reply, connSlots <-chan struct{},
	reqWG *sync.WaitGroup, free chan *join, tag uint64, op workload.Op, sectors, nfrags int) {
	j.s, j.ns, j.ioCh, j.connSlots, j.reqWG, j.free = s, ns, ioCh, connSlots, reqWG, free
	j.tag, j.op, j.sectors = tag, op, sectors
	j.remaining, j.errIdx = nfrags, nfrags
	j.lat, j.flash, j.err = 0, 0, nil
	if cap(j.frags) < nfrags {
		j.frags = make([]fragDone, nfrags)
	}
	j.frags = j.frags[:nfrags]
}

// fragDone delivers one fragment's engine completion into its join. It
// implements host.Completion: Complete only reads the command's fields and
// never retains the pointer, so the scheduler reuses the record for the
// next submission.
type fragDone struct {
	j   *join
	sh  *shard
	idx int
}

func (fd *fragDone) Complete(hc *host.Command) {
	fd.sh.progress.Add(1)
	fd.j.finish(fd.sh, fd.idx, time.Duration(hc.Complete.Sub(hc.Arrival)), hc.FlashBytes, hc.Err)
}

// finish retires one fragment. The fragment's shard slot releases
// immediately; the last fragment records the command, escalates health,
// emits the reply, releases the connection slot, and returns the join to
// its connection's pool.
func (j *join) finish(sh *shard, fragIdx int, lat time.Duration, flash int64, err error) {
	j.mu.Lock()
	if lat > j.lat {
		j.lat = lat
	}
	j.flash += flash
	if err != nil && fragIdx < j.errIdx {
		j.err, j.errIdx = err, fragIdx
	}
	j.remaining--
	last := j.remaining == 0
	cmdLat, cmdFlash, cmdErr := j.lat, j.flash, j.err
	j.mu.Unlock()
	<-sh.slots
	if !last {
		return
	}
	j.ns.record(j.op, j.sectors, j.s.sectorBytes, cmdLat, cmdFlash, cmdErr != nil)
	status, rung := classify(cmdErr)
	j.ns.health.escalate(rung)
	rep := wire.Reply{Tag: j.tag, Status: status, LatencyNS: uint64(cmdLat)}
	if cmdErr != nil {
		rep.Payload = []byte(cmdErr.Error())
	}
	j.ioCh <- rep // never blocks: one buffered slot per admitted command
	<-j.connSlots
	// Release order matters: capture the WaitGroup, pool the join (after
	// which the reader may immediately reuse it), then signal completion.
	// The pool put never blocks — at most PerConnInflight joins exist.
	wg := j.reqWG
	if j.free != nil {
		select {
		case j.free <- j:
		default:
		}
	}
	wg.Done()
}

// ftlReadOnlyMsg is the breaker's reply payload, matching what the
// engine path reports so clients see one read-only message either way.
var ftlReadOnlyMsg = ftl.ErrReadOnly.Error()

// errEngineStopped completes fragments whose shard engine exited before
// the submission could be handed over; classify maps it to the typed
// SHUTTING_DOWN status.
var errEngineStopped = engineStoppedError{}

type engineStoppedError struct{}

func (engineStoppedError) Error() string { return "engine stopped" }

// admit acquires the per-connection slot, then one admission slot per
// fragment on its owning shard, sharing one AdmitTimeout budget across
// all of them. Fragments arrive in ascending shard order, giving every
// reader the same acquisition order. It returns false after replying
// (RETRYABLE on timeout, SHUTTING_DOWN on engine exit) when the command
// was not admitted; any partially acquired slots are released.
func (s *Server) admit(connSlots chan struct{}, frags []frag, tag uint64, auxCh chan<- wire.Reply) bool {
	var timeout <-chan time.Time
	if s.cfg.AdmitTimeout > 0 {
		t := time.NewTimer(s.cfg.AdmitTimeout)
		defer t.Stop()
		timeout = t.C
	}
	refuse := func(status uint8, msg string, taken int) bool {
		for i := 0; i < taken; i++ {
			<-frags[i].sh.slots
		}
		auxCh <- wire.Reply{Tag: tag, Status: status, Payload: []byte(msg)}
		return false
	}
	select {
	case connSlots <- struct{}{}:
	case <-timeout:
		return refuse(wire.StatusRetryable, "admission timed out; retry with backoff", 0)
	}
	for i, fr := range frags {
		select {
		case fr.sh.slots <- struct{}{}:
		case <-fr.sh.engineDone:
			<-connSlots
			return refuse(wire.StatusShutdown, "engine stopped", i)
		case <-timeout:
			<-connSlots
			return refuse(wire.StatusRetryable, "admission timed out; retry with backoff", i)
		}
	}
	return true
}

// errAdvanceRejected is the reply text for clock-advance commands on a
// live connection.
var errAdvanceRejected = advanceError{}

type advanceError struct{}

func (advanceError) Error() string {
	return "server: ADVANCE is not servable live; the real-time gate owns the clock"
}

// connWriter streams replies to the socket, batching frames between
// channel stalls. A connection that cannot absorb its replies within
// the write timeout is declared dead; remaining replies are drained and
// discarded so completion callbacks never back up.
func (s *Server) connWriter(c net.Conn, ioCh, auxCh <-chan wire.Reply, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriter(c)
	dead := false
	// Frames are built in writer-owned scratch and handed to the buffered
	// writer, which coalesces a burst of replies into one flush; the
	// scratch grows to the largest reply seen and is reused, so the
	// steady-state write path allocates nothing.
	var wbuf []byte
	write := func(r wire.Reply) {
		if dead {
			return
		}
		c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		wbuf = wire.AppendReply(wbuf[:0], r)
		if _, err := bw.Write(wbuf); err != nil {
			dead = true
		}
	}
	flush := func() {
		if dead {
			return
		}
		c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		if err := bw.Flush(); err != nil {
			dead = true
		}
	}
	// take writes a received reply, or retires the channel it came from
	// once that is closed and drained.
	take := func(ch *<-chan wire.Reply, r wire.Reply, ok bool) {
		if ok {
			write(r)
		} else {
			*ch = nil
		}
	}
	for ioCh != nil || auxCh != nil {
		// Opportunistically drain whatever is ready, then flush once
		// before blocking: one syscall per burst, not per reply.
		select {
		case r, ok := <-ioCh:
			take(&ioCh, r, ok)
		case r, ok := <-auxCh:
			take(&auxCh, r, ok)
		default:
			flush()
			select {
			case r, ok := <-ioCh:
				take(&ioCh, r, ok)
			case r, ok := <-auxCh:
				take(&auxCh, r, ok)
			}
		}
	}
	flush()
}
